// Command perfbase is the frontend of the perfbase experiment
// management system (paper §4: "it is invoked by providing the
// perfbase command (like setup, input or query) plus required
// arguments").
//
// Usage:
//
//	perfbase [-db DIR | -server ADDR] COMMAND [flags] [args]
//
// Commands:
//
//	setup   -def FILE                 create an experiment from an XML definition
//	update  -def FILE                 evolve an experiment to a new definition
//	input   -exp NAME -desc FILE [-missing POLICY] [-force] [-set var=value]... FILE...
//	                                  import run output files
//	query   -spec FILE [-out DIR] [-parallel N] [-tcp]
//	                                  run a query and render its outputs
//	ls                                list experiments
//	info    -exp NAME                 show experiment meta data and variables
//	runs    -exp NAME                 list the runs of an experiment
//	dump    -exp NAME -run ID         print the content of one run
//	check   -exp NAME                 report variables without content per run
//	suspect -exp NAME -value VAR [-k K] [-latest] [-threshold PCT] [-group a,b]
//	                                  automatic analysis: show only unusual results
//	delete  -exp NAME -run ID         delete one run
//	destroy -exp NAME                 remove an experiment entirely
//	export  -exp NAME -out DIR        archive an experiment as portable ASCII files
//	restore -in DIR                   recreate an experiment from an archive
//	sql     STATEMENT                 run raw SQL against the backend (debugging)
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"perfbase"
	"perfbase/internal/failpoint"
	"perfbase/internal/input"
)

func main() {
	// Fault-injection sites for crash-recovery testing against the
	// real binary (PERFBASE_FAILPOINTS="site=spec;...").
	if err := failpoint.SetFromEnv(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbase:", err)
		os.Exit(1)
	}
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbase:", err)
		os.Exit(1)
	}
}

// run executes one CLI invocation; split from main for testability.
func run(args []string, stdout io.Writer) error {
	global := flag.NewFlagSet("perfbase", flag.ContinueOnError)
	global.SetOutput(stdout)
	dbDir := global.String("db", envOr("PERFBASE_DB", "perfbase.db"), "database directory")
	server := global.String("server", os.Getenv("PERFBASE_SERVER"), "database server address (overrides -db)")
	if err := global.Parse(args); err != nil {
		return err
	}
	rest := global.Args()
	if len(rest) == 0 {
		return fmt.Errorf("no command given (try: setup, input, query, ls, info, runs, dump, check, delete, destroy)")
	}
	cmd, cmdArgs := rest[0], rest[1:]

	var session *perfbase.Session
	var err error
	if *server != "" {
		session, err = perfbase.Connect(*server)
	} else {
		session, err = perfbase.OpenDir(*dbDir)
	}
	if err != nil {
		return err
	}
	defer session.Close()

	switch cmd {
	case "setup":
		return cmdSetup(session, cmdArgs, stdout)
	case "update":
		return cmdUpdate(session, cmdArgs, stdout)
	case "input":
		return cmdInput(session, cmdArgs, stdout)
	case "query":
		return cmdQuery(session, cmdArgs, stdout)
	case "ls":
		return cmdLs(session, stdout)
	case "info":
		return cmdInfo(session, cmdArgs, stdout)
	case "runs":
		return cmdRuns(session, cmdArgs, stdout)
	case "dump":
		return cmdDump(session, cmdArgs, stdout)
	case "check":
		return cmdCheck(session, cmdArgs, stdout)
	case "suspect":
		return cmdSuspect(session, cmdArgs, stdout)
	case "delete":
		return cmdDelete(session, cmdArgs, stdout)
	case "destroy":
		return cmdDestroy(session, cmdArgs, stdout)
	case "export":
		return cmdExport(session, cmdArgs, stdout)
	case "restore":
		return cmdRestore(session, cmdArgs, stdout)
	case "sql":
		return cmdSQL(session, cmdArgs, stdout)
	}
	return fmt.Errorf("unknown command %q", cmd)
}

func envOr(key, dflt string) string {
	if v := os.Getenv(key); v != "" {
		return v
	}
	return dflt
}

func cmdSetup(s *perfbase.Session, args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("setup", flag.ContinueOnError)
	fs.SetOutput(stdout)
	def := fs.String("def", "", "experiment definition XML file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *def == "" {
		return fmt.Errorf("setup: -def FILE is required")
	}
	f, err := os.Open(*def)
	if err != nil {
		return err
	}
	defer f.Close()
	exp, err := s.Setup(f)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "created experiment %s with %d variables\n", exp.Name(), len(exp.Vars()))
	return nil
}

func cmdUpdate(s *perfbase.Session, args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("update", flag.ContinueOnError)
	fs.SetOutput(stdout)
	def := fs.String("def", "", "experiment definition XML file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *def == "" {
		return fmt.Errorf("update: -def FILE is required")
	}
	f, err := os.Open(*def)
	if err != nil {
		return err
	}
	defer f.Close()
	exp, err := s.Update(f)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "updated experiment %s, now %d variables\n", exp.Name(), len(exp.Vars()))
	return nil
}

// setFlags collects repeated -set var=value overrides.
type setFlags map[string]string

func (sf setFlags) String() string { return "" }

func (sf setFlags) Set(v string) error {
	name, val, ok := strings.Cut(v, "=")
	if !ok {
		return fmt.Errorf("-set wants var=value, got %q", v)
	}
	sf[name] = val
	return nil
}

func cmdInput(s *perfbase.Session, args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("input", flag.ContinueOnError)
	fs.SetOutput(stdout)
	exp := fs.String("exp", "", "experiment name")
	desc := fs.String("desc", "", "input description XML file")
	missing := fs.String("missing", "default", "missing-content policy: default, empty, discard, fail")
	force := fs.Bool("force", false, "re-import files whose fingerprint is already present")
	overrides := setFlags{}
	fs.Var(overrides, "set", "override variable content (var=value, repeatable)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *exp == "" || *desc == "" {
		return fmt.Errorf("input: -exp NAME and -desc FILE are required")
	}
	if fs.NArg() == 0 {
		return fmt.Errorf("input: no input files given")
	}
	policy, err := input.ParsePolicy(*missing)
	if err != nil {
		return err
	}
	f, err := os.Open(*desc)
	if err != nil {
		return err
	}
	defer f.Close()
	ids, err := s.Import(*exp, f, perfbase.ImportOptions{
		Missing: policy, Force: *force, Overrides: overrides,
	}, fs.Args()...)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "imported %d run(s):", len(ids))
	for _, id := range ids {
		fmt.Fprintf(stdout, " %d", id)
	}
	fmt.Fprintln(stdout)
	return nil
}

func cmdQuery(s *perfbase.Session, args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("query", flag.ContinueOnError)
	fs.SetOutput(stdout)
	spec := fs.String("spec", "", "query specification XML file")
	outDir := fs.String("out", ".", "directory for output files with a target name")
	parallel := fs.Int("parallel", 0, "number of worker databases to place elements on (0 = all on this database; a level's elements run concurrently either way)")
	tcp := fs.Bool("tcp", false, "use TCP-connected worker servers (with -parallel)")
	profile := fs.Bool("profile", false, "print per-element execution times")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *spec == "" {
		return fmt.Errorf("query: -spec FILE is required")
	}
	f, err := os.Open(*spec)
	if err != nil {
		return err
	}
	defer f.Close()
	var res *perfbase.Results
	if *parallel > 0 {
		res, err = s.QueryParallel(f, *parallel, *tcp)
	} else {
		res, err = s.Query(f)
	}
	if err != nil {
		return err
	}
	docs, err := perfbase.RenderAll(res)
	if err != nil {
		return err
	}
	if err := perfbase.WriteDocuments(*outDir, docs); err != nil {
		return err
	}
	for _, d := range docs {
		if d.Name == "" {
			stdout.Write(d.Content) //nolint:errcheck
		} else {
			fmt.Fprintf(stdout, "wrote %s (%s, %d bytes)\n",
				filepath.Join(*outDir, d.Name), d.Format, len(d.Content))
		}
	}
	elapsed, prof := perfbase.QueryElapsed(res)
	if *profile {
		ids := make([]string, 0, len(prof))
		for id := range prof {
			ids = append(ids, id)
		}
		sort.Strings(ids)
		var sum time.Duration
		for _, id := range ids {
			fmt.Fprintf(stdout, "# element %-12s %v\n", id, prof[id])
			sum += prof[id]
		}
		// The elements of one level run concurrently, so their sum can
		// exceed the wall time.
		fmt.Fprintf(stdout, "# elements %v\n", sum)
		fmt.Fprintf(stdout, "# total %v\n", elapsed)
	}
	return nil
}

func cmdLs(s *perfbase.Session, stdout io.Writer) error {
	names, err := s.Experiments()
	if err != nil {
		return err
	}
	for _, n := range names {
		fmt.Fprintln(stdout, n)
	}
	return nil
}

func expFlag(args []string, stdout io.Writer, name string, extra func(*flag.FlagSet)) (*flag.FlagSet, *string, error) {
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	fs.SetOutput(stdout)
	exp := fs.String("exp", "", "experiment name")
	if extra != nil {
		extra(fs)
	}
	if err := fs.Parse(args); err != nil {
		return nil, nil, err
	}
	if *exp == "" {
		return nil, nil, fmt.Errorf("%s: -exp NAME is required", name)
	}
	return fs, exp, nil
}

func cmdInfo(s *perfbase.Session, args []string, stdout io.Writer) error {
	_, expName, err := expFlag(args, stdout, "info", nil)
	if err != nil {
		return err
	}
	exp, err := s.Experiment(*expName)
	if err != nil {
		return err
	}
	def := exp.Def()
	fmt.Fprintf(stdout, "experiment: %s\n", exp.Name())
	if def.Info.Synopsis != "" {
		fmt.Fprintf(stdout, "synopsis:   %s\n", def.Info.Synopsis)
	}
	if def.Info.Project != "" {
		fmt.Fprintf(stdout, "project:    %s\n", def.Info.Project)
	}
	if def.Info.PerformedBy.Name != "" {
		fmt.Fprintf(stdout, "performed by: %s (%s)\n",
			def.Info.PerformedBy.Name, def.Info.PerformedBy.Organization)
	}
	fmt.Fprintln(stdout, "variables:")
	for _, v := range exp.Vars() {
		kind := "parameter"
		if v.Result {
			kind = "result"
		}
		occ := "multiple"
		if v.Once {
			occ = "once"
		}
		unit := v.Unit.String()
		if unit == "1" {
			unit = "-"
		}
		fmt.Fprintf(stdout, "  %-14s %-9s %-8s %-9s [%s] %s\n",
			v.Name, kind, occ, v.Type, unit, v.Synopsis)
	}
	runs, err := exp.Runs()
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "runs: %d\n", len(runs))
	return nil
}

func cmdRuns(s *perfbase.Session, args []string, stdout io.Writer) error {
	_, expName, err := expFlag(args, stdout, "runs", nil)
	if err != nil {
		return err
	}
	exp, err := s.Experiment(*expName)
	if err != nil {
		return err
	}
	runs, err := exp.Runs()
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%-6s %-20s %-8s %s\n", "run", "created", "datasets", "source")
	for _, r := range runs {
		fmt.Fprintf(stdout, "%-6d %-20s %-8d %s\n",
			r.ID, r.Created.Format("2006-01-02 15:04:05"), r.DataSets, r.Source)
	}
	return nil
}

func cmdDump(s *perfbase.Session, args []string, stdout io.Writer) error {
	var runID int64
	_, expName, err := expFlag(args, stdout, "dump", func(fs *flag.FlagSet) {
		fs.Int64Var(&runID, "run", 0, "run id")
	})
	if err != nil {
		return err
	}
	if runID == 0 {
		return fmt.Errorf("dump: -run ID is required")
	}
	exp, err := s.Experiment(*expName)
	if err != nil {
		return err
	}
	once, err := exp.RunOnce(runID)
	if err != nil {
		return err
	}
	names := make([]string, 0, len(once))
	for n := range once {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(stdout, "run %d of %s\n", runID, exp.Name())
	for _, n := range names {
		fmt.Fprintf(stdout, "  %-14s = %s\n", n, once[n])
	}
	data, err := exp.RunData(runID)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "data sets: %d\n", len(data.Rows))
	if len(data.Rows) > 0 {
		fmt.Fprintln(stdout, strings.Join(data.Columns.Names(), "\t"))
		for _, row := range data.Rows {
			cells := make([]string, len(row))
			for i, v := range row {
				cells[i] = v.String()
			}
			fmt.Fprintln(stdout, strings.Join(cells, "\t"))
		}
	}
	return nil
}

// cmdCheck reports which variables lack content per run — the status
// retrieval of paper §3.4 ("determine which parameter settings might
// still be missing").
func cmdCheck(s *perfbase.Session, args []string, stdout io.Writer) error {
	_, expName, err := expFlag(args, stdout, "check", nil)
	if err != nil {
		return err
	}
	exp, err := s.Experiment(*expName)
	if err != nil {
		return err
	}
	runs, err := exp.Runs()
	if err != nil {
		return err
	}
	clean := true
	for _, r := range runs {
		once, err := exp.RunOnce(r.ID)
		if err != nil {
			return err
		}
		var missing []string
		for name, v := range once {
			if v.IsNull() {
				missing = append(missing, name)
			}
		}
		if r.DataSets == 0 && len(exp.MultiVars()) > 0 {
			missing = append(missing, "(no data sets)")
		}
		if len(missing) > 0 {
			sort.Strings(missing)
			fmt.Fprintf(stdout, "run %d: missing %s\n", r.ID, strings.Join(missing, ", "))
			clean = false
		}
	}
	if clean {
		fmt.Fprintf(stdout, "all %d run(s) complete\n", len(runs))
	}
	return nil
}

// cmdSuspect runs the automatic result analysis (paper §6 future
// work): either an outlier scan over all stored data points, or a
// comparison of the latest run against the history.
func cmdSuspect(s *perfbase.Session, args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("suspect", flag.ContinueOnError)
	fs.SetOutput(stdout)
	exp := fs.String("exp", "", "experiment name")
	variable := fs.String("value", "", "result value to analyse")
	k := fs.Float64("k", 3, "sigma threshold for the outlier scan")
	latest := fs.Bool("latest", false, "compare the latest run against history instead")
	threshold := fs.Float64("threshold", 20, "percent-change threshold with -latest")
	group := fs.String("group", "", "comma-separated grouping parameters (default: all)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *exp == "" || *variable == "" {
		return fmt.Errorf("suspect: -exp NAME and -value VAR are required")
	}
	opts := perfbase.AnomalyOptions{K: *k, ThresholdPct: *threshold}
	if *group != "" {
		for _, g := range strings.Split(*group, ",") {
			if g = strings.TrimSpace(g); g != "" {
				opts.GroupBy = append(opts.GroupBy, g)
			}
		}
	}
	if *latest {
		regs, err := s.CompareLatest(*exp, *variable, opts)
		if err != nil {
			return err
		}
		if len(regs) == 0 {
			fmt.Fprintf(stdout, "latest run of %s shows no deviation beyond %.0f%%\n", *exp, *threshold)
			return nil
		}
		for _, r := range regs {
			fmt.Fprintf(stdout, "run %d  %-40s %s: %.3f vs history %.3f (%+.1f%%, %d runs)\n",
				r.RunID, r.Group, *variable, r.Latest, r.History, r.ChangePct, r.HistoryRuns)
		}
		return nil
	}
	findings, err := s.ScanAnomalies(*exp, *variable, opts)
	if err != nil {
		return err
	}
	if len(findings) == 0 {
		fmt.Fprintf(stdout, "no data point of %s deviates beyond %.1f sigma\n", *variable, *k)
		return nil
	}
	for _, f := range findings {
		fmt.Fprintf(stdout, "run %d  %-40s %s = %.3f (center %.3f, %.1f sigma)\n",
			f.RunID, f.Group, f.Variable, f.Value, f.Mean, f.Sigma)
	}
	return nil
}

func cmdDelete(s *perfbase.Session, args []string, stdout io.Writer) error {
	var runID int64
	_, expName, err := expFlag(args, stdout, "delete", func(fs *flag.FlagSet) {
		fs.Int64Var(&runID, "run", 0, "run id")
	})
	if err != nil {
		return err
	}
	if runID == 0 {
		return fmt.Errorf("delete: -run ID is required")
	}
	exp, err := s.Experiment(*expName)
	if err != nil {
		return err
	}
	if err := exp.DeleteRun(runID); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "deleted run %d of %s\n", runID, exp.Name())
	return nil
}

func cmdExport(s *perfbase.Session, args []string, stdout io.Writer) error {
	var outDir string
	_, expName, err := expFlag(args, stdout, "export", func(fs *flag.FlagSet) {
		fs.StringVar(&outDir, "out", "", "archive directory")
	})
	if err != nil {
		return err
	}
	if outDir == "" {
		return fmt.Errorf("export: -out DIR is required")
	}
	n, err := s.Export(*expName, outDir)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "archived experiment %s with %d run(s) to %s\n", *expName, n, outDir)
	return nil
}

func cmdRestore(s *perfbase.Session, args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("restore", flag.ContinueOnError)
	fs.SetOutput(stdout)
	inDir := fs.String("in", "", "archive directory")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *inDir == "" {
		return fmt.Errorf("restore: -in DIR is required")
	}
	exp, ids, err := s.Restore(*inDir)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "restored experiment %s with %d run(s)\n", exp.Name(), len(ids))
	return nil
}

// cmdSQL executes a raw statement against the backing database — the
// escape hatch for inspecting the storage layout described in §4.2.
func cmdSQL(s *perfbase.Session, args []string, stdout io.Writer) error {
	if len(args) == 0 {
		return fmt.Errorf("sql: no statement given")
	}
	stmt := strings.Join(args, " ")
	res, err := s.Store().Querier().Exec(stmt)
	if err != nil {
		return err
	}
	if len(res.Columns) == 0 {
		fmt.Fprintf(stdout, "ok (%d row(s) affected)\n", res.Affected)
		return nil
	}
	fmt.Fprintln(stdout, strings.Join(res.Columns.Names(), "\t"))
	for _, row := range res.Rows {
		cells := make([]string, len(row))
		for i, v := range row {
			cells[i] = v.String()
		}
		fmt.Fprintln(stdout, strings.Join(cells, "\t"))
	}
	return nil
}

func cmdDestroy(s *perfbase.Session, args []string, stdout io.Writer) error {
	_, expName, err := expFlag(args, stdout, "destroy", nil)
	if err != nil {
		return err
	}
	if err := s.Destroy(*expName); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "destroyed experiment %s\n", *expName)
	return nil
}
