// Cluster deployment: the paper's §4.2/§4.3 operating modes as a
// runnable demo.
//
// The example starts a perfbase database server (as pbserver would run
// on a cluster frontend), connects a session to it over TCP — "a user
// can ... store his data on any connected server", §4.2 — imports a
// simulated b_eff_io campaign through that connection, and then runs
// the same parameter-sweep query three ways: every element on the
// server holding the data, elements placed on in-process worker
// databases (the paper's "even on a single (SMP) server" case), and on
// real socket-connected worker servers (Fig. 3). The elements of a plan
// level run concurrently in all three. It prints the wall times
// and the per-element profile that underlies the §4.3 source-fraction
// discussion.
//
//	go run ./examples/cluster
package main

import (
	"fmt"
	"log"
	"sort"
	"strings"
	"time"

	"perfbase"
	"perfbase/internal/beffio"
	"perfbase/internal/sqldb"
	"perfbase/internal/sqldb/wire"
)

// sweepQuery aggregates each operation's bandwidths separately — a
// three-wide plan whose levels can run concurrently.
const sweepQuery = `
<query experiment="b_eff_io">
  <source id="s_write">
    <parameter name="op" value="write"/>
    <parameter name="technique"/><parameter name="fs"/><parameter name="S_chunk"/>
    <value name="B_separate"/><value name="B_scatter"/><value name="B_shared"/>
  </source>
  <source id="s_rewrite">
    <parameter name="op" value="rewrite"/>
    <parameter name="technique"/><parameter name="fs"/><parameter name="S_chunk"/>
    <value name="B_separate"/><value name="B_scatter"/><value name="B_shared"/>
  </source>
  <source id="s_read">
    <parameter name="op" value="read"/>
    <parameter name="technique"/><parameter name="fs"/><parameter name="S_chunk"/>
    <value name="B_separate"/><value name="B_scatter"/><value name="B_shared"/>
  </source>
  <operator id="a_write" type="avg" input="s_write"/>
  <operator id="a_rewrite" type="avg" input="s_rewrite"/>
  <operator id="a_read" type="avg" input="s_read"/>
  <output input="a_write" format="ascii"/>
  <output input="a_rewrite" format="ascii"/>
  <output input="a_read" format="ascii"/>
</query>`

func main() {
	// 1. Frontend node: a database server holding the experiments.
	frontend := sqldb.NewMemory()
	server := wire.NewServer(frontend)
	if err := server.Listen("127.0.0.1:0"); err != nil {
		log.Fatal(err)
	}
	defer server.Close()
	fmt.Printf("database server listening on %s\n", server.Addr())

	// 2. A client workstation connects over the socket.
	session, err := perfbase.Connect(server.Addr())
	if err != nil {
		log.Fatal(err)
	}
	defer session.Close()
	if _, err := session.Setup(strings.NewReader(beffio.ExperimentXML)); err != nil {
		log.Fatal(err)
	}

	// 3. Import a campaign through the connection.
	dir, cleanup, err := generateCampaign()
	if err != nil {
		log.Fatal(err)
	}
	defer cleanup()
	ids, err := session.Import("b_eff_io", strings.NewReader(beffio.InputXML),
		perfbase.ImportOptions{Missing: perfbase.MissingFail}, dir...)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("imported %d runs over the wire\n\n", len(ids))

	// 4. The same query, three placements.
	type mode struct {
		name string
		run  func() (*perfbase.Results, error)
	}
	modes := []mode{
		{"single server", func() (*perfbase.Results, error) {
			return session.Query(strings.NewReader(sweepQuery))
		}},
		{"3 local workers (SMP)", func() (*perfbase.Results, error) {
			return session.QueryParallel(strings.NewReader(sweepQuery), 3, false)
		}},
		{"3 TCP worker servers (cluster)", func() (*perfbase.Results, error) {
			return session.QueryParallel(strings.NewReader(sweepQuery), 3, true)
		}},
	}
	var firstProfile map[string]time.Duration
	for _, m := range modes {
		start := time.Now()
		res, err := m.run()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-44s %8v  (%d outputs)\n", m.name, time.Since(start).Round(10*time.Microsecond), len(res.Outputs))
		if firstProfile == nil {
			firstProfile = res.Profile
		}
	}

	// 5. The per-element profile behind the §4.3 discussion.
	fmt.Println("\nper-element profile of the single-server run:")
	ids2 := make([]string, 0, len(firstProfile))
	for id := range firstProfile {
		ids2 = append(ids2, id)
	}
	sort.Strings(ids2)
	var total, src time.Duration
	for _, id := range ids2 {
		total += firstProfile[id]
		if strings.HasPrefix(id, "s_") {
			src += firstProfile[id]
		}
	}
	for _, id := range ids2 {
		fmt.Printf("  %-10s %8v  (%4.1f%%)\n", id,
			firstProfile[id].Round(10*time.Microsecond),
			100*float64(firstProfile[id])/float64(total))
	}
	fmt.Printf("source elements: %.0f%% of element time\n", 100*float64(src)/float64(total))
}

// generateCampaign writes benchmark files into a temp dir and returns
// their paths plus a cleanup function.
func generateCampaign() ([]string, func(), error) {
	dir, err := tmpDir()
	if err != nil {
		return nil, nil, err
	}
	cfgs := beffio.SweepConfigs(
		[]string{beffio.TechniqueListBased, beffio.TechniqueListLess},
		[]string{"ufs", "nfs"}, []int{4}, 3, 7)
	paths, err := beffio.GenerateFiles(dir.path, "grisu", cfgs)
	if err != nil {
		dir.remove()
		return nil, nil, err
	}
	return paths, dir.remove, nil
}
