package main

import (
	"bytes"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"perfbase"
	"perfbase/internal/beffio"
)

// The oracle recomputes every query result in plain Go from the values
// the generators printed. At set-up each parameterisation runs once
// through the system and its ASCII tables are compared number by number
// with the oracle; the documents of that verified run become the golden
// bytes every measured op is compared with.

// oracleRow is one expected table line: leading key fields verbatim,
// then one number.
type oracleRow struct {
	keys  []string
	value float64
}

// relTol is the relative tolerance of the numeric comparison: the
// database may sum in another order than the oracle.
const relTol = 1e-9

func aggregate(agg string, xs []float64) float64 {
	switch agg {
	case "max":
		m := math.Inf(-1)
		for _, x := range xs {
			m = math.Max(m, x)
		}
		return m
	case "avg", "stddev":
		var sum float64
		for _, x := range xs {
			sum += x
		}
		mean := sum / float64(len(xs))
		if agg == "avg" {
			return mean
		}
		var ss float64
		for _, x := range xs {
			ss += (x - mean) * (x - mean)
		}
		return math.Sqrt(ss / float64(len(xs)-1)) // sample, like SQL STDDEV
	}
	panic("bench: unknown aggregate " + agg)
}

// expected returns the Fig. 8 table of the parameterisation: one row
// per (op, chunk) ordered as GROUP BY … ORDER BY op, S_chunk does.
func (p fig8Param) expected(c *beffCorpus) []oracleRow {
	ops := append([]string(nil), beffio.Ops...)
	sort.Strings(ops)
	var rows []oracleRow
	for _, op := range ops {
		for _, chunk := range beffio.PatternChunks {
			cell := beffCell{beffio.TechniqueListBased, p.fs, op, chunk, fig8Access[p.value]}
			base := aggregate(p.agg, c.cells[cell])
			cell.technique = beffio.TechniqueListLess
			rows = append(rows, oracleRow{
				keys:  []string{op, strconv.FormatInt(chunk, 10)},
				value: aggregate(p.agg, c.cells[cell]) / base * 100,
			})
		}
	}
	return rows
}

// msgExpected returns the two msgsweep tables for one result value:
// percentof of the means, and the standard deviation of the ib runs.
func msgExpected(c *msgCorpus, value string) (rel, sd []oracleRow) {
	for s := 0; s < msgSizes; s++ {
		msg := int64(1) << s
		size := strconv.FormatInt(msg, 10)
		ib := c.cells[msgCell{"ib", 2, msg, value}]
		gige := c.cells[msgCell{"gige", 2, msg, value}]
		rel = append(rel, oracleRow{[]string{size}, aggregate("avg", ib) / aggregate("avg", gige) * 100})
		// An aggregate of a source vector keeps the pinned parameters.
		sd = append(sd, oracleRow{[]string{"ib", "2", size}, aggregate("stddev", ib)})
	}
	return rel, sd
}

// checkASCII compares a rendered ASCII table with the expected rows.
func checkASCII(content []byte, want []oracleRow) error {
	var body [][]string
	pastRule := false
	for _, line := range strings.Split(string(content), "\n") {
		switch {
		case strings.HasPrefix(line, "#") || strings.TrimSpace(line) == "":
		case strings.HasPrefix(line, "---"):
			pastRule = true
		case pastRule:
			body = append(body, strings.Fields(line))
		}
	}
	if len(body) != len(want) {
		return fmt.Errorf("table has %d rows, oracle %d", len(body), len(want))
	}
	for i, w := range want {
		got := body[i]
		if len(got) != len(w.keys)+1 {
			return fmt.Errorf("row %d has %d fields, oracle %d", i, len(got), len(w.keys)+1)
		}
		for k, key := range w.keys {
			if got[k] != key {
				return fmt.Errorf("row %d key %d is %q, oracle %q", i, k, got[k], key)
			}
		}
		v, err := strconv.ParseFloat(got[len(w.keys)], 64)
		if err != nil {
			return fmt.Errorf("row %d: %w", i, err)
		}
		if math.Abs(v-w.value) > relTol*math.Abs(w.value) {
			return fmt.Errorf("row %d %v is %v, oracle %v", i, w.keys, v, w.value)
		}
	}
	return nil
}

// docByName finds a rendered document.
func docByName(docs []perfbase.Document, name string) ([]byte, error) {
	for _, d := range docs {
		if d.Name == name {
			return d.Content, nil
		}
	}
	return nil, fmt.Errorf("no document %q", name)
}

// checkTables verifies the named ASCII documents against the oracle.
func checkTables(docs []perfbase.Document, want map[string][]oracleRow) error {
	for name, rows := range want {
		content, err := docByName(docs, name)
		if err != nil {
			return err
		}
		if err := checkASCII(content, rows); err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
	}
	return nil
}

// sameDocs reports whether two document lists are byte-identical.
func sameDocs(a, b []perfbase.Document) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Name != b[i].Name || a[i].Format != b[i].Format || !bytes.Equal(a[i].Content, b[i].Content) {
			return false
		}
	}
	return true
}
