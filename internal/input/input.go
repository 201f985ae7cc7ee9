// Package input implements the perfbase import engine.
//
// An input description (pbxml.Input) tells perfbase how to extract the
// content of experiment variables from the arbitrary ASCII output of a
// run (paper §3.2): named locations anchor on keyword matches, fixed
// locations address row/column positions, tabular locations parse
// whole tables into data sets, filename locations mine the file name,
// fixed values and derived parameters supply content that is not in
// the files at all, and run separators split one file into several
// runs. The four file-to-run mappings of paper Fig. 1 are provided by
// ImportFile (cases a and b), ImportFiles (case c) and ImportMerged
// (case d). Re-importing a file with an unchanged fingerprint is
// refused unless forced (paper §3.2).
package input

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"regexp"
	"slices"
	"strings"

	"perfbase/internal/core"
	"perfbase/internal/expr"
	"perfbase/internal/pbxml"
	"perfbase/internal/sqldb"
	"perfbase/internal/value"
)

// Policy selects what happens when the input files do not provide
// content for all declared variables (paper §3.2).
type Policy int

const (
	// UseDefault fills missing variables from their declared default
	// (or NULL). This is the default behaviour.
	UseDefault Policy = iota
	// AllowEmpty stores missing variables as NULL even when a default
	// is declared.
	AllowEmpty
	// Discard silently skips runs with missing variables, enabling
	// worry-free batch imports over partially corrupt files.
	Discard
	// Fail aborts the import with an error on the first missing
	// variable.
	Fail
)

// String names the policy for diagnostics and CLI flags.
func (p Policy) String() string {
	switch p {
	case UseDefault:
		return "default"
	case AllowEmpty:
		return "empty"
	case Discard:
		return "discard"
	case Fail:
		return "fail"
	}
	return "unknown"
}

// ParsePolicy resolves a policy name as given on the command line.
func ParsePolicy(s string) (Policy, error) {
	switch strings.ToLower(s) {
	case "", "default":
		return UseDefault, nil
	case "empty":
		return AllowEmpty, nil
	case "discard":
		return Discard, nil
	case "fail":
		return Fail, nil
	}
	return 0, fmt.Errorf("input: unknown missing-content policy %q", s)
}

// Options adjusts import behaviour.
type Options struct {
	// Missing selects the missing-content policy.
	Missing Policy
	// Force allows importing a file whose fingerprint is already
	// present ("without explicit confirmation, importing data from the
	// same input file more than once is not possible", §3.2).
	Force bool
	// Overrides supplies variable content from the command line,
	// taking precedence over anything extracted from the files.
	Overrides map[string]string
}

// Importer binds one input description to an open experiment.
type Importer struct {
	exp  *core.Experiment
	desc *pbxml.Input
	opts Options

	named    []namedLoc
	tabular  []tabularLoc
	filename []filenameLoc
	derived  []derivedLoc
	sepRe    *regexp.Regexp
}

type namedLoc struct {
	spec pbxml.NamedLocation
	v    *core.Var
	re   *regexp.Regexp // nil for literal match
}

type tabularLoc struct {
	spec    pbxml.TabularLocation
	startRe *regexp.Regexp
	cols    []tabCol
	maxPos  int
}

type tabCol struct {
	spec pbxml.TabColumn
	v    *core.Var // nil for pure filter columns
}

type filenameLoc struct {
	spec pbxml.FilenameLocation
	v    *core.Var
	re   *regexp.Regexp
}

// derivedLoc is a derived parameter: its expression compiled over a row
// of the variables it reads.
type derivedLoc struct {
	v    *core.Var
	vars []*core.Var
	eval func(sqldb.Row) (value.Value, error)
}

// NewImporter validates the description against the experiment and
// compiles all regular expressions and derived-parameter expressions.
func NewImporter(exp *core.Experiment, desc *pbxml.Input, opts Options) (*Importer, error) {
	if err := desc.Validate(); err != nil {
		return nil, err
	}
	if !strings.EqualFold(desc.Experiment, exp.Name()) {
		return nil, fmt.Errorf("input: description is for experiment %q, not %q",
			desc.Experiment, exp.Name())
	}
	im := &Importer{exp: exp, desc: desc, opts: opts}

	mustVar := func(name, where string) (*core.Var, error) {
		v, ok := exp.Var(name)
		if !ok {
			return nil, fmt.Errorf("input: %s references unknown variable %q", where, name)
		}
		return v, nil
	}
	for _, n := range desc.Named {
		v, err := mustVar(n.Variable, "named location")
		if err != nil {
			return nil, err
		}
		nl := namedLoc{spec: n, v: v}
		if n.Regexp != "" {
			re, err := regexp.Compile(n.Regexp)
			if err != nil {
				return nil, fmt.Errorf("input: named location %s: %w", n.Variable, err)
			}
			nl.re = re
		}
		im.named = append(im.named, nl)
	}
	for ti, tl := range desc.Tabular {
		t := tabularLoc{spec: tl}
		if tl.Regexp != "" {
			re, err := regexp.Compile(tl.Regexp)
			if err != nil {
				return nil, fmt.Errorf("input: tabular location %d: %w", ti, err)
			}
			t.startRe = re
		}
		for _, c := range tl.Columns {
			tc := tabCol{spec: c}
			if c.Variable != "" {
				v, err := mustVar(c.Variable, "tabular column")
				if err != nil {
					return nil, err
				}
				if v.Once {
					// The paper stores per-dataset content of "once"
					// parameters too when they come from table columns
					// with constant content; we require them to be
					// declared multiple to keep the model simple.
					return nil, fmt.Errorf("input: tabular column %s: variable is declared occurrence=once", c.Variable)
				}
				tc.v = v
			}
			if c.Pos > t.maxPos {
				t.maxPos = c.Pos
			}
			t.cols = append(t.cols, tc)
		}
		im.tabular = append(im.tabular, t)
	}
	for _, f := range desc.Filename {
		v, err := mustVar(f.Variable, "filename location")
		if err != nil {
			return nil, err
		}
		fl := filenameLoc{spec: f, v: v}
		if f.Regexp != "" {
			re, err := regexp.Compile(f.Regexp)
			if err != nil {
				return nil, fmt.Errorf("input: filename location %s: %w", f.Variable, err)
			}
			fl.re = re
		}
		im.filename = append(im.filename, fl)
	}
	for _, d := range desc.Derived {
		v, err := mustVar(d.Variable, "derived parameter")
		if err != nil {
			return nil, err
		}
		dl, err := compileDerived(exp, v, d.Expression)
		if err != nil {
			return nil, fmt.Errorf("input: derived parameter %s: %w", d.Variable, err)
		}
		im.derived = append(im.derived, dl)
	}
	for _, fv := range desc.Values {
		if _, err := mustVar(fv.Variable, "fixed value"); err != nil {
			return nil, err
		}
	}
	for name := range opts.Overrides {
		if _, ok := exp.Var(name); !ok {
			return nil, fmt.Errorf("input: override references unknown variable %q", name)
		}
	}
	if desc.Separator != nil && desc.Separator.Regexp != "" {
		re, err := regexp.Compile(desc.Separator.Regexp)
		if err != nil {
			return nil, fmt.Errorf("input: run separator: %w", err)
		}
		im.sepRe = re
	}
	return im, nil
}

// compileDerived compiles the expression of the derived parameter v over
// a row of the variables it reads that are in its scope: the once
// variables, and the per-data-set ones too when v is one of them. A name
// out of scope fails each evaluation.
func compileDerived(exp *core.Experiment, v *core.Var, src string) (derivedLoc, error) {
	e, err := expr.Compile(src)
	if err != nil {
		return derivedLoc{}, err
	}
	d := derivedLoc{v: v}
	var cols sqldb.Schema
	for _, name := range e.Variables() {
		if in, ok := exp.Var(name); ok && (in.Once || !v.Once) {
			d.vars = append(d.vars, in)
			cols = append(cols, sqldb.Column{Name: in.Name, Type: in.Type})
		}
	}
	d.eval, err = sqldb.CompileExpr(e.SQL(), cols)
	return d, err
}

// Fingerprint computes the duplicate-detection checksum of input data.
func Fingerprint(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// ImportFile imports one file: paper Fig. 1 case a (one run), or case
// b (several runs) when the description has a run separator. It
// returns the created run ids.
func (im *Importer) ImportFile(path string) ([]int64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("input: %w", err)
	}
	return im.ImportBytes(path, data)
}

// ImportBytes imports in-memory file content under the given name.
// The runs of one file are stored in one transaction: all of them or,
// on any error, none.
func (im *Importer) ImportBytes(name string, data []byte) ([]int64, error) {
	sum := Fingerprint(data)
	segments := im.splitRuns(splitLines(string(data)))
	runs := make([]core.NewRun, 0, len(segments))
	for si, seg := range segments {
		ex, skipped, err := im.extractRun(name, seg)
		if err != nil {
			return nil, fmt.Errorf("input: %s run %d: %w", name, si+1, err)
		}
		if skipped {
			continue
		}
		checksum := sum
		if len(segments) > 1 {
			checksum = fmt.Sprintf("%s#%d", sum, si)
		}
		runs = append(runs, core.NewRun{Once: ex.once, Sets: ex.sets, Source: name, Checksum: checksum})
	}
	if len(runs) == 0 {
		if len(segments) > 0 && im.opts.Missing != Discard {
			return nil, fmt.Errorf("input: %s produced no runs", name)
		}
		return nil, nil
	}
	ids, err := im.exp.CreateRuns(dupCheck(sum, im.opts), runs)
	if errors.Is(err, core.ErrDuplicateImport) {
		return nil, fmt.Errorf("input: %s was already imported (use force to re-import)", name)
	}
	if err != nil {
		return nil, fmt.Errorf("input: %s: %w", name, err)
	}
	return ids, nil
}

// dupCheck is the fingerprint CreateRuns refuses a duplicate by: none
// under Force.
func dupCheck(sum string, opts Options) string {
	if opts.Force {
		return ""
	}
	return sum
}

// ImportFiles imports several files independently with this single
// description: paper Fig. 1 case c.
func (im *Importer) ImportFiles(paths []string) ([]int64, error) {
	var ids []int64
	for _, p := range paths {
		got, err := im.ImportFile(p)
		if err != nil {
			return ids, err
		}
		ids = append(ids, got...)
	}
	return ids, nil
}

// splitRuns applies the run separator: paper Fig. 1 case b. The
// separator line terminates a segment and belongs to it (benchmark
// summaries typically end with a marker line carrying data).
func (im *Importer) splitRuns(lines []string) [][]string {
	sep := im.desc.Separator
	if sep == nil {
		return [][]string{lines}
	}
	matches := func(line string) bool {
		if im.sepRe != nil {
			return im.sepRe.MatchString(line)
		}
		return strings.Contains(line, sep.Match)
	}
	var segs [][]string
	start := 0
	for i, line := range lines {
		if matches(line) {
			segs = append(segs, lines[start:i+1])
			start = i + 1
		}
	}
	if tail := lines[start:]; !allBlank(tail) {
		segs = append(segs, tail)
	}
	return segs
}

func allBlank(lines []string) bool {
	for _, l := range lines {
		if strings.TrimSpace(l) != "" {
			return false
		}
	}
	return true
}

func splitLines(s string) []string {
	s = strings.ReplaceAll(s, "\r\n", "\n")
	return strings.Split(s, "\n")
}

// extractRun extracts one run from a line range, complete with fixed
// values, overrides and derived parameters, under the missing-content
// policy. skipped reports a Discard-policy skip.
func (im *Importer) extractRun(name string, lines []string) (ex *extraction, skipped bool, err error) {
	if ex, err = im.extract(name, lines); err != nil {
		return nil, false, err
	}
	if err := im.applyOverridesAndFixed(ex); err != nil {
		return nil, false, err
	}
	if skipped, err := im.complete(ex); skipped || err != nil {
		return nil, skipped, err
	}
	return ex, false, nil
}

// complete applies the missing-content policy to the variables the
// run's content leaves without any, then evaluates the derived
// parameters, which see the policy's choice: Fail is an error naming the
// variables, Discard skips the run, AllowEmpty stores NULL for a once
// variable (suppressing its default), and UseDefault leaves each to its
// declared default or NULL. A NULL propagates through an expression.
func (im *Importer) complete(ex *extraction) (skipped bool, err error) {
	missing := im.missingVars(ex)
	switch {
	case len(missing) == 0:
	case im.opts.Missing == Fail:
		names := make([]string, len(missing))
		for i, v := range missing {
			names[i] = v.Name
		}
		return false, fmt.Errorf("no content for variable(s) %s", strings.Join(names, ", "))
	case im.opts.Missing == Discard:
		return true, nil
	case im.opts.Missing == AllowEmpty:
		for _, v := range missing {
			if v.Once {
				ex.once[v.Name] = value.Null(v.Type)
			}
		}
	}
	return false, im.derive(ex)
}

// extraction is the raw result of applying all locations to one run's
// lines.
type extraction struct {
	once core.DataSet
	sets []core.DataSet
}

// extract applies filename, named, fixed and tabular locations.
func (im *Importer) extract(name string, lines []string) (*extraction, error) {
	ex := &extraction{once: core.DataSet{}}

	for _, fl := range im.filename {
		v, err := fl.extract(name)
		if err != nil {
			return nil, err
		}
		if !v.IsNull() {
			ex.once[fl.v.Name] = v
		}
	}
	for _, nl := range im.named {
		v, err := nl.extract(lines)
		if err != nil {
			return nil, err
		}
		if !v.IsNull() {
			ex.once[nl.v.Name] = v
		}
	}
	for _, fx := range im.desc.Fixed {
		v, ok := im.exp.Var(fx.Variable)
		if !ok {
			return nil, fmt.Errorf("fixed location references unknown variable %q", fx.Variable)
		}
		content, err := extractFixed(fx, lines, v.Type)
		if err != nil {
			return nil, err
		}
		if !content.IsNull() {
			ex.once[v.Name] = content
		}
	}
	for i := range im.tabular {
		sets, err := im.tabular[i].extract(lines)
		if err != nil {
			return nil, err
		}
		ex.sets = append(ex.sets, sets...)
	}
	return ex, nil
}

// applyOverridesAndFixed merges <value> elements and command-line
// overrides into the once map (overrides win).
func (im *Importer) applyOverridesAndFixed(ex *extraction) error {
	for _, fv := range im.desc.Values {
		v, _ := im.exp.Var(fv.Variable)
		content, err := value.Parse(v.Type, fv.Content)
		if err != nil {
			return fmt.Errorf("fixed value %s: %w", fv.Variable, err)
		}
		if _, have := ex.once[v.Name]; !have {
			ex.once[v.Name] = content
		}
	}
	for name, text := range im.opts.Overrides {
		v, _ := im.exp.Var(name)
		content, err := value.Parse(v.Type, text)
		if err != nil {
			return fmt.Errorf("override %s: %w", name, err)
		}
		ex.once[v.Name] = content
	}
	return nil
}

// derive evaluates the derived parameters: those of once variables
// first, into the once content, then the others into each data set,
// which sees the once content too. A variable with no content reads as
// the missing-content policy stores it.
func (im *Importer) derive(ex *extraction) error {
	var row sqldb.Row
	for _, once := range [...]bool{true, false} {
		for _, d := range im.derived {
			if d.v.Once != once {
				continue
			}
			row = slices.Grow(row[:0], len(d.vars))[:len(d.vars)]
			if once {
				v, err := im.evalDerived(d, row, ex.once, nil)
				if err != nil {
					return fmt.Errorf("derived parameter %s: %w", d.v.Name, err)
				}
				ex.once[d.v.Name] = v
				continue
			}
			for si, ds := range ex.sets {
				v, err := im.evalDerived(d, row, ex.once, ds)
				if err != nil {
					return fmt.Errorf("derived parameter %s (data set %d): %w", d.v.Name, si, err)
				}
				ds[d.v.Name] = v
			}
		}
	}
	return nil
}

// evalDerived evaluates d into row over the content of the data set ds
// and the once content, converted to d's type.
func (im *Importer) evalDerived(d derivedLoc, row sqldb.Row, once, ds core.DataSet) (value.Value, error) {
	for i, in := range d.vars {
		c, ok := ds[in.Name]
		if !ok {
			c, ok = once[in.Name]
		}
		switch {
		case ok:
		case im.opts.Missing == AllowEmpty:
			c = value.Null(in.Type)
		default:
			c = in.Default
		}
		row[i] = c
	}
	v, err := d.eval(row)
	if err != nil {
		return v, err
	}
	return v.Convert(d.v.Type)
}

// missingVars lists the declared variables that received no content,
// but for once variables a derived parameter gives content.
func (im *Importer) missingVars(ex *extraction) []core.Var {
	var missing []core.Var
	for _, v := range im.exp.OnceVars() {
		if _, ok := ex.once[v.Name]; !ok && !im.derives(v.Name) {
			missing = append(missing, v)
		}
	}
	multi := im.exp.MultiVars()
	if len(multi) > 0 && len(ex.sets) == 0 {
		missing = append(missing, multi...)
	}
	return missing
}

// derives reports whether a derived parameter gives the variable name
// its content.
func (im *Importer) derives(name string) bool {
	for _, d := range im.derived {
		if d.v.Name == name {
			return true
		}
	}
	return false
}

// ----------------------------------------------------------- locations

// extract applies a named location to the lines.
func (nl *namedLoc) extract(lines []string) (value.Value, error) {
	for li, line := range lines {
		if nl.spec.Line > 0 && li+1 != nl.spec.Line {
			continue
		}
		var rest string
		if nl.re != nil {
			loc := nl.re.FindStringSubmatchIndex(line)
			if loc == nil {
				continue
			}
			// A capture group takes precedence.
			if len(loc) >= 4 && loc[2] >= 0 {
				rest = line[loc[2]:loc[3]]
				return parseContent(nl.v.Type, rest, 0)
			}
			if nl.spec.Before {
				rest = line[:loc[0]]
			} else {
				rest = line[loc[1]:]
			}
		} else {
			idx := strings.Index(line, nl.spec.Match)
			if idx < 0 {
				continue
			}
			if nl.spec.Before {
				rest = line[:idx]
			} else {
				rest = line[idx+len(nl.spec.Match):]
			}
		}
		return parseContent(nl.v.Type, rest, nl.spec.Field)
	}
	return value.Null(nl.v.Type), nil
}

// parseContent converts matched text to a value, honouring the field
// selector (1-based white-space field; 0 = smart parse of everything).
func parseContent(t value.Type, text string, field int) (value.Value, error) {
	if field > 0 {
		fields := strings.Fields(text)
		if field > len(fields) {
			return value.Null(t), nil
		}
		text = fields[field-1]
	}
	if t == value.String && field == 0 {
		// Whole-remainder strings keep interior spacing.
		return owned(value.Parse(t, strings.Trim(strings.TrimSpace(text), ":= ")))
	}
	return owned(value.SmartParse(t, text))
}

// owned copies the text of a String or Version value out of the input it
// was cut from: a stored value must not keep its whole file alive.
func owned(v value.Value, err error) (value.Value, error) {
	if err != nil || v.IsNull() {
		return v, err
	}
	switch v.Type() {
	case value.String:
		return value.NewString(strings.Clone(v.Str())), nil
	case value.Version:
		return value.NewVersion(strings.Clone(v.Str())), nil
	}
	return v, nil
}

// extractFixed applies a fixed row/column location.
func extractFixed(fx pbxml.FixedLocation, lines []string, t value.Type) (value.Value, error) {
	if fx.Row > len(lines) {
		return value.Null(t), nil
	}
	fields := strings.Fields(lines[fx.Row-1])
	if fx.Col > len(fields) {
		return value.Null(t), nil
	}
	return owned(value.SmartParse(t, fields[fx.Col-1]))
}

// extract applies a filename location.
func (fl *filenameLoc) extract(name string) (value.Value, error) {
	base := name
	if i := strings.LastIndexByte(base, '/'); i >= 0 {
		base = base[i+1:]
	}
	if fl.re != nil {
		m := fl.re.FindStringSubmatch(base)
		if m == nil {
			return value.Null(fl.v.Type), nil
		}
		text := m[0]
		if len(m) > 1 {
			text = m[1]
		}
		return value.SmartParse(fl.v.Type, text)
	}
	// Split mode; the extension does not count as a part.
	if i := strings.LastIndexByte(base, '.'); i > 0 {
		base = base[:i]
	}
	parts := strings.Split(base, fl.spec.Split)
	if fl.spec.Index >= len(parts) {
		return value.Null(fl.v.Type), nil
	}
	return value.SmartParse(fl.v.Type, parts[fl.spec.Index])
}

// extract applies a tabular location, returning one data set per
// accepted table row.
func (tl *tabularLoc) extract(lines []string) ([]core.DataSet, error) {
	start := -1
	for li, line := range lines {
		if tl.startRe != nil {
			if tl.startRe.MatchString(line) {
				start = li
				break
			}
		} else if strings.Contains(line, tl.spec.Start) {
			start = li
			break
		}
	}
	if start < 0 {
		return nil, nil
	}
	var sets []core.DataSet
	for li := start + 1 + tl.spec.Offset; li < len(lines); li++ {
		line := lines[li]
		if tl.spec.End != "" && strings.Contains(line, tl.spec.End) {
			break
		}
		if strings.TrimSpace(line) == "" {
			if tl.spec.SkipBlank {
				continue
			}
			break
		}
		var fields []string
		if tl.spec.Sep != "" {
			for _, f := range strings.Split(line, tl.spec.Sep) {
				fields = append(fields, strings.TrimSpace(f))
			}
		} else {
			fields = strings.Fields(line)
		}
		ds, ok := tl.parseRow(fields)
		if ok {
			sets = append(sets, ds)
		}
		if tl.spec.MaxRows > 0 && len(sets) >= tl.spec.MaxRows {
			break
		}
	}
	return sets, nil
}

// parseRow converts one table line into a data set. Rows that miss a
// field, fail a filter, or fail to parse are skipped (headers and
// total lines inside the region).
func (tl *tabularLoc) parseRow(fields []string) (core.DataSet, bool) {
	if len(fields) < tl.maxPos {
		return nil, false
	}
	ds := core.DataSet{}
	for _, c := range tl.cols {
		text := fields[c.spec.Pos-1]
		if c.spec.Filter != "" && text != c.spec.Filter {
			return nil, false
		}
		if c.v == nil {
			continue
		}
		v, err := owned(value.Parse(c.v.Type, text))
		if err != nil {
			return nil, false
		}
		ds[c.v.Name] = v
	}
	return ds, true
}

// ------------------------------------------------- merged import (d)

// DescFile pairs one input description with one file for a merged
// import.
type DescFile struct {
	Desc *pbxml.Input
	Path string
	// Data overrides reading Path when non-nil (for tests and
	// generated content).
	Data []byte
}

// ImportMerged processes multiple input files, each with its own input
// description, and merges all extracted content into a single run:
// paper Fig. 1 case d. Later files win conflicting once values; data
// sets concatenate. A run the Discard policy skips has id 0.
func ImportMerged(exp *core.Experiment, pairs []DescFile, opts Options) (int64, error) {
	if len(pairs) == 0 {
		return 0, fmt.Errorf("input: merged import needs at least one description/file pair")
	}
	merged := &extraction{once: core.DataSet{}}
	var names []string
	hash := sha256.New()
	var lastIm *Importer
	for _, p := range pairs {
		im, err := NewImporter(exp, p.Desc, opts)
		if err != nil {
			return 0, err
		}
		if im.desc.Separator != nil {
			return 0, fmt.Errorf("input: run separators are not supported in merged imports")
		}
		data := p.Data
		if data == nil {
			data, err = os.ReadFile(p.Path)
			if err != nil {
				return 0, fmt.Errorf("input: %w", err)
			}
		}
		hash.Write(data)
		ex, err := im.extract(p.Path, splitLines(string(data)))
		if err != nil {
			return 0, fmt.Errorf("input: %s: %w", p.Path, err)
		}
		if err := im.applyOverridesAndFixed(ex); err != nil {
			return 0, fmt.Errorf("input: %s: %w", p.Path, err)
		}
		for k, v := range ex.once {
			merged.once[k] = v
		}
		merged.sets = append(merged.sets, ex.sets...)
		names = append(names, p.Path)
		lastIm = im
	}
	sum := hex.EncodeToString(hash.Sum(nil))
	if skipped, err := lastIm.complete(merged); skipped || err != nil {
		if err != nil {
			err = fmt.Errorf("input: %w", err)
		}
		return 0, err
	}
	ids, err := exp.CreateRuns(dupCheck(sum, opts), []core.NewRun{{
		Once: merged.once, Sets: merged.sets, Source: strings.Join(names, "+"), Checksum: sum}})
	if errors.Is(err, core.ErrDuplicateImport) {
		return 0, fmt.Errorf("input: this file combination was already imported (use force to re-import)")
	}
	if err != nil {
		return 0, fmt.Errorf("input: %w", err)
	}
	return ids[0], nil
}
