package main

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"

	"perfbase/internal/beffio"
)

// The b_eff_io campaign every workload imports: 2 techniques × 3 file
// systems × 3 process counts × reps, seeded and shuffled so that import
// order carries no structure. One file is ≈ 3.5 KB, 57 lines, 24 data
// rows.
var (
	beffTechniques = []string{beffio.TechniqueListBased, beffio.TechniqueListLess}
	beffFS         = []string{"ufs", "nfs", "pfs"}
	beffProcs      = []int{4, 8, 16}
)

// beffCell is the list of printed bandwidths of one result-matrix cell
// over all runs of one (technique, file system) pair.
type beffCell struct {
	technique, fs, op string
	chunk             int64
	accessType        int
}

// beffCorpus is a generated b_eff_io campaign on disk.
type beffCorpus struct {
	files []string // import order
	bytes int64    // raw bytes of all files
	cells map[beffCell][]float64
}

// printed returns v as the importer will read it back from a "%.3f"
// column, so the oracle and the database start from the same number.
func printed(v float64) float64 {
	f, _ := strconv.ParseFloat(strconv.FormatFloat(v, 'f', 3, 64), 64)
	return f
}

// genBeffio writes 18×reps b_eff_io summary files under dir.
func genBeffio(dir string, seed int64, reps int) (*beffCorpus, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	cfgs := beffio.SweepConfigs(beffTechniques, beffFS, beffProcs, reps, seed*1_000_003)
	rand.New(rand.NewSource(seed)).Shuffle(len(cfgs), func(i, j int) { cfgs[i], cfgs[j] = cfgs[j], cfgs[i] })
	c := &beffCorpus{cells: map[beffCell][]float64{}}
	for i, cfg := range cfgs {
		run := beffio.Simulate(cfg)
		prefix := run.Prefix("grisu", i+1)
		text := run.Output(prefix)
		path := filepath.Join(dir, prefix+".txt")
		if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
			return nil, err
		}
		c.files = append(c.files, path)
		c.bytes += int64(len(text))
		for _, cell := range run.Cells {
			for t, bw := range cell.BW {
				k := beffCell{cfg.Technique, cfg.FS, cell.Op, cell.Chunk, t}
				c.cells[k] = append(c.cells[k], printed(bw))
			}
		}
	}
	return c, nil
}

// The Fig. 8 family: relative difference of the two non-contiguous I/O
// techniques on one file system, for one access type and one
// aggregate. 3 × 3 × 2 = 18 parameterisations.
var (
	fig8Values = []string{"B_scatter", "B_separate", "B_segcoll"}
	fig8Access = map[string]int{"B_scatter": 0, "B_separate": 2, "B_segcoll": 4}
	fig8Aggs   = []string{"max", "avg"}
)

type fig8Param struct{ fs, value, agg string }

// fig8Params lists the 18 parameterisations in a seeded order.
func fig8Params(seed int64) []fig8Param {
	var ps []fig8Param
	for _, fs := range beffFS {
		for _, v := range fig8Values {
			for _, a := range fig8Aggs {
				ps = append(ps, fig8Param{fs, v, a})
			}
		}
	}
	rand.New(rand.NewSource(seed+1)).Shuffle(len(ps), func(i, j int) { ps[i], ps[j] = ps[j], ps[i] })
	return ps
}

// spec renders the query specification of the parameterisation (paper
// Fig. 7 with the file system, value and aggregate substituted).
func (p fig8Param) spec() string {
	src := func(id, technique string) string {
		return fmt.Sprintf(`  <source id=%q>
    <parameter name="technique" value=%q/>
    <parameter name="fs" value=%q/>
    <parameter name="op"/>
    <parameter name="S_chunk"/>
    <value name=%q/>
  </source>
`, id, technique, p.fs, p.value)
	}
	return `<query experiment="b_eff_io">
` + src("src_old", beffio.TechniqueListBased) + src("src_new", beffio.TechniqueListLess) +
		fmt.Sprintf(`  <operator id="agg_old" type=%q input="src_old"/>
  <operator id="agg_new" type=%q input="src_new"/>
  <operator id="rel" type="percentof" input="agg_new agg_old"/>
  <output input="rel" format="gnuplot" style="bars" title="Fig. 8" target="fig8.gp"/>
  <output input="rel" format="ascii" target="fig8.txt"/>
</query>`, p.agg, p.agg)
}

// msgsweep is the benchmark's own experiment: a ping-pong message-size
// sweep whose runs carry 20 000 tabular rows each, so that bulk
// INSERT…SELECT and vectorized aggregation carry a query instead of
// per-run overhead.
const msgsweepExperimentXML = `
<experiment>
  <name>msgsweep</name>
  <info><synopsis>ping-pong latency and bandwidth over message size</synopsis></info>
  <parameter occurence="once"><name>net</name><synopsis>interconnect</synopsis><datatype>string</datatype></parameter>
  <parameter occurence="once"><name>nodes</name><synopsis>number of nodes</synopsis><datatype>integer</datatype></parameter>
  <parameter><name>msg</name><synopsis>message size</synopsis><datatype>integer</datatype>
    <unit><base_unit>byte</base_unit></unit></parameter>
  <parameter><name>iter</name><synopsis>iteration</synopsis><datatype>integer</datatype></parameter>
  <result><name>lat</name><synopsis>one-way latency</synopsis><datatype>float</datatype>
    <unit><base_unit>s</base_unit><scaling>Micro</scaling></unit></result>
  <result><name>bw</name><synopsis>bandwidth</synopsis><datatype>float</datatype>
    <unit><fraction>
      <dividend><base_unit>byte</base_unit><scaling>Mega</scaling></dividend>
      <divisor><base_unit>s</base_unit></divisor>
    </fraction></unit></result>
</experiment>`

const msgsweepInputXML = `
<input experiment="msgsweep">
  <named variable="net" match="net:"/>
  <named variable="nodes" match="nodes:"/>
  <tabular start="msg iter lat bw">
    <column variable="msg" pos="1"/>
    <column variable="iter" pos="2"/>
    <column variable="lat" pos="3"/>
    <column variable="bw" pos="4"/>
  </tabular>
</input>`

// msgNets models three interconnects as start-up latency [µs] plus
// bytes per µs.
var msgNets = map[string][2]float64{"gige": {30, 110}, "ib": {4, 900}, "myri": {8, 240}}

// msgRuns is the fixed run mix: the query compares gige against ib on
// two nodes, so four runs match a source and four do not.
var msgRuns = []struct {
	net   string
	nodes int
}{
	{"gige", 2}, {"ib", 2}, {"myri", 2}, {"gige", 4},
	{"ib", 2}, {"gige", 2}, {"ib", 4}, {"myri", 4},
}

const msgSizes = 20 // 1 B … 512 KiB

type msgCell struct {
	net   string
	nodes int
	msg   int64
	value string // lat or bw
}

// msgCorpus is a generated msgsweep campaign on disk.
type msgCorpus struct {
	files []string
	bytes int64
	rows  int // tabular rows per file
	cells map[msgCell][]float64
}

// genMsgsweep writes len(msgRuns) files of msgSizes×iters rows.
func genMsgsweep(dir string, seed int64, iters int) (*msgCorpus, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	c := &msgCorpus{rows: msgSizes * iters, cells: map[msgCell][]float64{}}
	rng := rand.New(rand.NewSource(seed*7919 + 3))
	for ri, r := range msgRuns {
		model := msgNets[r.net]
		buf := make([]byte, 0, 32*c.rows)
		buf = append(buf, fmt.Sprintf("net: %s\nnodes: %d\nrun: %d\nmsg iter lat bw\n", r.net, r.nodes, ri+1)...)
		for s := 0; s < msgSizes; s++ {
			msg := int64(1) << s
			mean := model[0] + float64(msg)/model[1]
			latKey := msgCell{r.net, r.nodes, msg, "lat"}
			bwKey := msgCell{r.net, r.nodes, msg, "bw"}
			for it := 0; it < iters; it++ {
				lat := mean * math.Exp(rng.NormFloat64()*0.05)
				bw := float64(msg) / lat
				buf = strconv.AppendInt(buf, msg, 10)
				buf = append(buf, ' ')
				buf = strconv.AppendInt(buf, int64(it), 10)
				buf = append(buf, ' ')
				buf = strconv.AppendFloat(buf, lat, 'f', 3, 64)
				buf = append(buf, ' ')
				buf = strconv.AppendFloat(buf, bw, 'f', 3, 64)
				buf = append(buf, '\n')
				c.cells[latKey] = append(c.cells[latKey], printed(lat))
				c.cells[bwKey] = append(c.cells[bwKey], printed(bw))
			}
		}
		path := filepath.Join(dir, fmt.Sprintf("msgsweep_%s_n%d_run%d.txt", r.net, r.nodes, ri+1))
		if err := os.WriteFile(path, buf, 0o644); err != nil {
			return nil, err
		}
		c.files = append(c.files, path)
		c.bytes += int64(len(buf))
	}
	return c, nil
}

// msgValues are the two parameterisations of the msgsweep query.
var msgValues = []string{"lat", "bw"}

// msgSpec compares ib against gige on two nodes for one result value:
// per message size the mean over 2 runs × iters iterations, its
// standard deviation, and the ratio of the means.
func msgSpec(value string) string {
	src := func(id, net string) string {
		return fmt.Sprintf(`  <source id=%q>
    <parameter name="net" value=%q/>
    <parameter name="nodes" value="2"/>
    <parameter name="msg"/>
    <value name=%q/>
  </source>
`, id, net, value)
	}
	return `<query experiment="msgsweep">
` + src("src_old", "gige") + src("src_new", "ib") + `  <operator id="avg_old" type="avg" input="src_old"/>
  <operator id="avg_new" type="avg" input="src_new"/>
  <operator id="sd_new" type="stddev" input="src_new"/>
  <operator id="rel" type="percentof" input="avg_new avg_old"/>
  <output input="rel" format="gnuplot" style="linespoints" title="ib vs gige" target="msg.gp"/>
  <output input="rel" format="ascii" target="msg_rel.txt"/>
  <output input="sd_new" format="ascii" target="msg_sd.txt"/>
</query>`
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.Walk(dir, func(_ string, fi os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if fi.Mode().IsRegular() {
			n += fi.Size()
		}
		return nil
	})
	return n, err
}
