// Package anomaly implements the automatic result analysis the paper
// lists as future work (§6): "the capability to analyse results
// automatically and only show suspicious or unusual results or
// deviations from previous runs".
//
// Two analyses are provided. Scan groups all stored data points of one
// result value by the experiment's parameters and flags points lying
// more than K robust standard deviations from their group centre —
// transient outliers like the I/O hiccups §5 warns about. Latest
// compares the newest run's per-group values against the history of
// earlier runs and flags relative regressions/improvements beyond a
// threshold — the "deviation from previous runs" view, which would
// have caught the list-less read bug the moment the first bad run was
// imported.
//
// Both analyses use median-based statistics (median and the scaled
// median absolute deviation) rather than mean/stddev: a single extreme
// outlier in a group of n samples can never exceed a z-score of
// (n-1)/sqrt(n) against the sample mean it contaminates, so moment
// statistics mask exactly the events the analysis exists to find.
package anomaly

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"perfbase/internal/core"
	"perfbase/internal/value"
)

// The default tuning, defined once here: every consumer — the CLI,
// pbserver's -alert-* flags, the live WATCH verb — renders and applies
// these same values, so the documentation cannot drift from the code.
const (
	// DefaultK is the sigma threshold of Scan.
	DefaultK = 3
	// DefaultThresholdPct is the relative-change threshold of Latest,
	// in percent.
	DefaultThresholdPct = 20
	// DefaultMinSamples is the minimum group population for statistics
	// (Latest additionally needs at least 2 runs).
	DefaultMinSamples = 4
)

// Options tunes the analyses. The zero value of each field selects the
// Default* constant above; GroupBy empty selects every parameter
// except timestamp-typed ones.
type Options struct {
	// K is the sigma threshold of Scan.
	K float64
	// ThresholdPct is the relative-change threshold of Latest in
	// percent.
	ThresholdPct float64
	// MinSamples is the minimum group population for statistics.
	MinSamples int
	// GroupBy names the parameters that define a group.
	GroupBy []string
}

// WithDefaults fills zero fields with the Default* constants.
func (o Options) WithDefaults() Options {
	if o.K == 0 {
		o.K = DefaultK
	}
	if o.ThresholdPct == 0 {
		o.ThresholdPct = DefaultThresholdPct
	}
	if o.MinSamples == 0 {
		o.MinSamples = DefaultMinSamples
	}
	return o
}

// Finding is one suspicious data point.
type Finding struct {
	RunID    int64
	Group    string // "technique=listless op=read S_chunk=1048584"
	Variable string
	Value    float64
	// Mean is the robust group centre (the median).
	Mean float64
	// Stddev is the robust spread estimate (1.4826 × MAD, which
	// equals the standard deviation for normal data).
	Stddev float64
	Sigma  float64 // |Value-Mean| / Stddev
}

// Regression is one group whose latest run deviates from history.
type Regression struct {
	RunID       int64 // the latest run
	Group       string
	Latest      float64 // group median in the latest run
	History     float64 // group median over all earlier runs
	ChangePct   float64 // signed percent change vs history
	HistoryRuns int
}

// point is one observation of the target variable.
type point struct {
	run int64
	v   float64
}

// collect gathers all observations of the target result value, grouped
// by the configured parameters.
func collect(exp *core.Experiment, variable string, opts Options) (map[string][]point, error) {
	v, ok := exp.Var(variable)
	if !ok {
		return nil, fmt.Errorf("anomaly: no variable %q in experiment %s", variable, exp.Name())
	}
	if !v.Result {
		return nil, fmt.Errorf("anomaly: %q is a parameter; analyses target result values", variable)
	}
	if !v.Type.Numeric() {
		return nil, fmt.Errorf("anomaly: %q is not numeric", variable)
	}

	groupSet := map[string]bool{}
	if len(opts.GroupBy) > 0 {
		for _, g := range opts.GroupBy {
			gv, ok := exp.Var(g)
			if !ok {
				return nil, fmt.Errorf("anomaly: unknown group parameter %q", g)
			}
			if gv.Result {
				return nil, fmt.Errorf("anomaly: group element %q is a result value", g)
			}
			groupSet[strings.ToLower(g)] = true
		}
	} else {
		for _, pv := range exp.Vars() {
			if !pv.Result && pv.Type != value.Timestamp {
				groupSet[strings.ToLower(pv.Name)] = true
			}
		}
	}

	runs, err := exp.Runs()
	if err != nil {
		return nil, err
	}
	groups := map[string][]point{}
	for _, run := range runs {
		once, err := exp.RunOnce(run.ID)
		if err != nil {
			return nil, err
		}
		var onceKey []string
		for _, pv := range exp.OnceVars() {
			if groupSet[strings.ToLower(pv.Name)] {
				onceKey = append(onceKey, pv.Name+"="+once[pv.Name].String())
			}
		}

		if v.Once {
			// Scalar result: one observation per run.
			val := once[v.Name]
			if val.IsNull() {
				continue
			}
			k := strings.Join(onceKey, " ")
			groups[k] = append(groups[k], point{run.ID, val.Float()})
			continue
		}

		data, err := exp.RunData(run.ID)
		if err != nil {
			return nil, err
		}
		vi := data.Columns.Index(v.Name)
		if vi < 0 {
			continue
		}
		type keyCol struct {
			name string
			idx  int
		}
		var keyCols []keyCol
		for _, mv := range exp.MultiVars() {
			if groupSet[strings.ToLower(mv.Name)] {
				if ci := data.Columns.Index(mv.Name); ci >= 0 {
					keyCols = append(keyCols, keyCol{mv.Name, ci})
				}
			}
		}
		for _, row := range data.Rows {
			if row[vi].IsNull() {
				continue
			}
			parts := append([]string{}, onceKey...)
			for _, kc := range keyCols {
				parts = append(parts, kc.name+"="+row[kc.idx].String())
			}
			k := strings.Join(parts, " ")
			groups[k] = append(groups[k], point{run.ID, row[vi].Float()})
		}
	}
	return groups, nil
}

// median returns the median of xs (xs is sorted in place).
func median(xs []float64) float64 {
	sort.Float64s(xs)
	mid := len(xs) / 2
	if len(xs)%2 == 1 {
		return xs[mid]
	}
	return (xs[mid-1] + xs[mid]) / 2
}

// robustStats returns the median and the scaled median absolute
// deviation (a robust stddev estimate) of the observations.
func robustStats(ps []point) (center, spread float64) {
	xs := make([]float64, len(ps))
	for i, p := range ps {
		xs[i] = p.v
	}
	center = median(xs)
	devs := make([]float64, len(ps))
	for i, p := range ps {
		devs[i] = math.Abs(p.v - center)
	}
	// 1.4826 makes the MAD consistent with the stddev under normality.
	return center, 1.4826 * median(devs)
}

// Scan flags observations more than K standard deviations from their
// group mean. Findings are ordered by descending sigma.
func Scan(exp *core.Experiment, variable string, opts Options) ([]Finding, error) {
	opts = opts.WithDefaults()
	groups, err := collect(exp, variable, opts)
	if err != nil {
		return nil, err
	}
	var findings []Finding
	for key, ps := range groups {
		if len(ps) < opts.MinSamples {
			continue
		}
		mean, sd := robustStats(ps)
		if sd == 0 {
			continue
		}
		for _, p := range ps {
			sigma := math.Abs(p.v-mean) / sd
			if sigma > opts.K {
				findings = append(findings, Finding{
					RunID: p.run, Group: key, Variable: variable,
					Value: p.v, Mean: mean, Stddev: sd, Sigma: sigma,
				})
			}
		}
	}
	sort.Slice(findings, func(i, j int) bool {
		if findings[i].Sigma != findings[j].Sigma {
			return findings[i].Sigma > findings[j].Sigma
		}
		return findings[i].Group < findings[j].Group
	})
	return findings, nil
}

// Latest compares the newest run against the history of all earlier
// runs, per group, and reports relative changes beyond the threshold.
// Results are ordered by descending absolute change.
func Latest(exp *core.Experiment, variable string, opts Options) ([]Regression, error) {
	opts = opts.WithDefaults()
	runs, err := exp.Runs()
	if err != nil {
		return nil, err
	}
	if len(runs) < 2 {
		return nil, fmt.Errorf("anomaly: need at least two runs to compare, have %d", len(runs))
	}
	latestID := runs[len(runs)-1].ID

	groups, err := collect(exp, variable, opts)
	if err != nil {
		return nil, err
	}
	var regs []Regression
	for key, ps := range groups {
		var latest, history []point
		histRuns := map[int64]bool{}
		for _, p := range ps {
			if p.run == latestID {
				latest = append(latest, p)
			} else {
				history = append(history, p)
				histRuns[p.run] = true
			}
		}
		if len(latest) == 0 || len(histRuns) < 1 {
			continue
		}
		lm, _ := robustStats(latest)
		hm, _ := robustStats(history)
		if hm == 0 {
			continue
		}
		change := (lm - hm) / math.Abs(hm) * 100
		if math.Abs(change) > opts.ThresholdPct {
			regs = append(regs, Regression{
				RunID: latestID, Group: key, Latest: lm, History: hm,
				ChangePct: change, HistoryRuns: len(histRuns),
			})
		}
	}
	sort.Slice(regs, func(i, j int) bool {
		ai, aj := math.Abs(regs[i].ChangePct), math.Abs(regs[j].ChangePct)
		if ai != aj {
			return ai > aj
		}
		return regs[i].Group < regs[j].Group
	})
	return regs, nil
}
