package query

import (
	"fmt"
	"strings"

	"perfbase/internal/expr"
	"perfbase/internal/pbxml"
)

// ElemKind classifies query elements.
type ElemKind int

// The four element kinds of paper Fig. 2.
const (
	KindSource ElemKind = iota
	KindOperator
	KindCombiner
	KindOutput
)

// String names the kind.
func (k ElemKind) String() string {
	switch k {
	case KindSource:
		return "source"
	case KindOperator:
		return "operator"
	case KindCombiner:
		return "combiner"
	case KindOutput:
		return "output"
	}
	return "?"
}

// Element is one node of the query DAG.
type Element struct {
	ID     string
	Kind   ElemKind
	Inputs []string

	Source   *pbxml.SourceElem
	Operator *pbxml.OperatorElem
	// Expr is an eval operator's expression in the SQL engine's grammar.
	Expr     string
	Combiner *pbxml.CombinerElem
	Output   *pbxml.OutputElem
}

// Plan is the validated, topologically levelled query DAG. Elements in
// the same level have no dependencies among each other and may execute
// concurrently (paper §4.3: "the number of cluster nodes that can be
// used efficiently is limited to the effective degree of parallelism
// in the query processing").
type Plan struct {
	Elements map[string]*Element
	// Levels holds element ids by topological level, sources first.
	Levels [][]string
	// Consumers counts how many elements read each element's vector;
	// executors use it to drop temp tables as soon as possible.
	Consumers map[string]int
}

// BuildPlan validates the query specification and computes the level
// order.
func BuildPlan(spec *pbxml.Query) (*Plan, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	p := &Plan{Elements: map[string]*Element{}, Consumers: map[string]int{}}
	for i := range spec.Sources {
		s := &spec.Sources[i]
		p.Elements[s.ID] = &Element{ID: s.ID, Kind: KindSource, Source: s}
	}
	for i := range spec.Operators {
		o := &spec.Operators[i]
		el := &Element{ID: o.ID, Kind: KindOperator, Operator: o, Inputs: strings.Fields(o.Input)}
		if strings.EqualFold(o.Type, "eval") {
			e, err := expr.Compile(o.Expression)
			if err != nil {
				return nil, fmt.Errorf("query: operator %s: %w", o.ID, err)
			}
			el.Expr = e.SQL()
		}
		p.Elements[o.ID] = el
	}
	for i := range spec.Combiners {
		c := &spec.Combiners[i]
		p.Elements[c.ID] = &Element{
			ID: c.ID, Kind: KindCombiner, Combiner: c,
			Inputs: strings.Fields(c.Input),
		}
	}
	for i := range spec.Outputs {
		o := &spec.Outputs[i]
		id := o.ID
		if id == "" {
			id = fmt.Sprintf("output%d", i+1)
		}
		if _, dup := p.Elements[id]; dup {
			return nil, fmt.Errorf("query: duplicate element id %q", id)
		}
		p.Elements[id] = &Element{
			ID: id, Kind: KindOutput, Output: o,
			Inputs: strings.Fields(o.Input),
		}
	}

	for _, el := range p.Elements {
		for _, in := range el.Inputs {
			if _, ok := p.Elements[in]; !ok {
				return nil, fmt.Errorf("query: element %q references unknown input %q", el.ID, in)
			}
			p.Consumers[in]++
		}
	}

	// Kahn levelling; also detects cycles.
	depth := map[string]int{}
	resolved := 0
	for resolved < len(p.Elements) {
		progressed := false
		for id, el := range p.Elements {
			if _, done := depth[id]; done {
				continue
			}
			level := 0
			ready := true
			for _, in := range el.Inputs {
				d, ok := depth[in]
				if !ok {
					ready = false
					break
				}
				if d+1 > level {
					level = d + 1
				}
			}
			if !ready {
				continue
			}
			depth[id] = level
			resolved++
			progressed = true
		}
		if !progressed {
			return nil, fmt.Errorf("query: element graph contains a cycle")
		}
	}
	maxLevel := 0
	for _, d := range depth {
		if d > maxLevel {
			maxLevel = d
		}
	}
	p.Levels = make([][]string, maxLevel+1)
	for id, d := range depth {
		p.Levels[d] = append(p.Levels[d], id)
	}
	for _, lvl := range p.Levels {
		sortStrings(lvl)
	}
	return p, nil
}

func sortStrings(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// Width returns the maximum number of elements in one level — the
// effective degree of parallelism of the query.
func (p *Plan) Width() int {
	w := 0
	for _, lvl := range p.Levels {
		if len(lvl) > w {
			w = len(lvl)
		}
	}
	return w
}
