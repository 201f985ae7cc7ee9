package sqldb

import (
	"container/list"
	"math"
	"regexp"
	"strings"
	"sync"

	"perfbase/internal/value"
)

func (e *binExpr) eval(ec *evalCtx) (value.Value, error) {
	lv, err := e.L.eval(ec)
	if err != nil {
		return value.Value{}, err
	}
	// Short-circuit booleans (SQL three-valued logic collapsed to
	// two-valued with NULL treated as false in filters).
	switch e.Op {
	case "and":
		if boolFalse(lv) {
			return value.NewBool(false), nil
		}
	case "or":
		if boolTrue(lv) {
			return value.NewBool(true), nil
		}
	}
	rv, err := e.R.eval(ec)
	if err != nil {
		return value.Value{}, err
	}
	switch e.Op {
	case "+":
		return value.Add(lv, rv)
	case "-":
		return value.Sub(lv, rv)
	case "*":
		return value.Mul(lv, rv)
	case "/":
		return value.Div(lv, rv)
	case "%":
		return value.Mod(lv, rv)
	case "||":
		ls, err := lv.Convert(value.String)
		if err != nil {
			return value.Value{}, err
		}
		rs, err := rv.Convert(value.String)
		if err != nil {
			return value.Value{}, err
		}
		return value.Add(ls, rs)
	case "=":
		return nullableCmp(lv, rv, func(c int) bool { return c == 0 })
	case "<>":
		return nullableCmp(lv, rv, func(c int) bool { return c != 0 })
	case "<":
		return nullableCmp(lv, rv, func(c int) bool { return c < 0 })
	case "<=":
		return nullableCmp(lv, rv, func(c int) bool { return c <= 0 })
	case ">":
		return nullableCmp(lv, rv, func(c int) bool { return c > 0 })
	case ">=":
		return nullableCmp(lv, rv, func(c int) bool { return c >= 0 })
	case "and":
		return value.NewBool(boolTrue(lv) && boolTrue(rv)), nil
	case "or":
		return value.NewBool(boolTrue(lv) || boolTrue(rv)), nil
	case "like":
		return evalLike(lv, rv)
	}
	return value.Value{}, errorf("unknown operator %q", e.Op)
}

// nullableCmp applies SQL comparison semantics: a comparison with NULL
// yields NULL (which filters treat as false).
func nullableCmp(a, b value.Value, ok func(int) bool) (value.Value, error) {
	if a.IsNull() || b.IsNull() {
		return value.Null(value.Boolean), nil
	}
	return value.NewBool(ok(value.Compare(a, b))), nil
}

func boolTrue(v value.Value) bool {
	return !v.IsNull() && v.Type() == value.Boolean && v.Bool()
}

func boolFalse(v value.Value) bool {
	return !v.IsNull() && v.Type() == value.Boolean && !v.Bool()
}

func (e *unaryExpr) eval(ec *evalCtx) (value.Value, error) {
	v, err := e.E.eval(ec)
	if err != nil {
		return value.Value{}, err
	}
	switch e.Op {
	case "-":
		return value.Neg(v)
	case "not":
		if v.IsNull() {
			return v, nil
		}
		if v.Type() != value.Boolean {
			return value.Value{}, errorf("NOT applied to %s", v.Type())
		}
		return value.NewBool(!v.Bool()), nil
	}
	return value.Value{}, errorf("unknown unary operator %q", e.Op)
}

func (e *isNullExpr) eval(ec *evalCtx) (value.Value, error) {
	v, err := e.E.eval(ec)
	if err != nil {
		return value.Value{}, err
	}
	return value.NewBool(v.IsNull() != e.Negate), nil
}

func (e *inExpr) eval(ec *evalCtx) (value.Value, error) {
	v, err := e.E.eval(ec)
	if err != nil {
		return value.Value{}, err
	}
	if v.IsNull() {
		return value.Null(value.Boolean), nil
	}
	found := false
	for _, item := range e.List {
		iv, err := item.eval(ec)
		if err != nil {
			return value.Value{}, err
		}
		if !iv.IsNull() && value.Equal(v, iv) {
			found = true
			break
		}
	}
	return value.NewBool(found != e.Negate), nil
}

func (e *betweenExpr) eval(ec *evalCtx) (value.Value, error) {
	v, err := e.E.eval(ec)
	if err != nil {
		return value.Value{}, err
	}
	lo, err := e.Lo.eval(ec)
	if err != nil {
		return value.Value{}, err
	}
	hi, err := e.Hi.eval(ec)
	if err != nil {
		return value.Value{}, err
	}
	if v.IsNull() || lo.IsNull() || hi.IsNull() {
		return value.Null(value.Boolean), nil
	}
	in := value.Compare(v, lo) >= 0 && value.Compare(v, hi) <= 0
	return value.NewBool(in != e.Negate), nil
}

// likeCache memoizes compiled LIKE patterns; benchmark queries apply
// the same pattern to every row. It is a small LRU (like the plan
// cache) so a stream of distinct — possibly adversarial — patterns
// cannot grow memory without bound.
var likeCache likeLRU

// likeCacheSize bounds the number of cached compiled patterns.
const likeCacheSize = 128

type likeLRU struct {
	mu sync.Mutex
	ll *list.List // front = most recently used; holds *likeItem
	m  map[string]*list.Element
}

type likeItem struct {
	pat string
	re  *regexp.Regexp
}

func (c *likeLRU) get(pat string) *regexp.Regexp {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.m[pat]
	if !ok {
		return nil
	}
	c.ll.MoveToFront(el)
	return el.Value.(*likeItem).re
}

func (c *likeLRU) put(pat string, re *regexp.Regexp) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.m == nil {
		c.m = make(map[string]*list.Element)
		c.ll = list.New()
	}
	if el, ok := c.m[pat]; ok {
		el.Value.(*likeItem).re = re
		c.ll.MoveToFront(el)
		return
	}
	c.m[pat] = c.ll.PushFront(&likeItem{pat: pat, re: re})
	for c.ll.Len() > likeCacheSize {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.m, oldest.Value.(*likeItem).pat)
	}
}

// len reports the number of cached patterns (used by tests).
func (c *likeLRU) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.ll == nil {
		return 0
	}
	return c.ll.Len()
}

func evalLike(v, pat value.Value) (value.Value, error) {
	if v.IsNull() || pat.IsNull() {
		return value.Null(value.Boolean), nil
	}
	s, err := v.Convert(value.String)
	if err != nil {
		return value.Value{}, err
	}
	re, err := likePattern(pat.Str())
	if err != nil {
		return value.Value{}, err
	}
	return value.NewBool(re.MatchString(s.Str())), nil
}

func (e *funcExpr) eval(ec *evalCtx) (value.Value, error) {
	args := make([]value.Value, len(e.Args))
	for i, a := range e.Args {
		v, err := a.eval(ec)
		if err != nil {
			return value.Value{}, err
		}
		args[i] = v
	}
	return applyFunc(e, args)
}

// applyFunc applies a scalar function to already-evaluated arguments.
// Both the interpreter above and the compiled executor funnel here.
func applyFunc(e *funcExpr, args []value.Value) (value.Value, error) {
	switch e.Name {
	case "abs":
		if err := wantArgs(e, args, 1); err != nil {
			return value.Value{}, err
		}
		if args[0].IsNull() {
			return args[0], nil
		}
		if args[0].Type() == value.Integer {
			if args[0].Int() < 0 {
				return value.NewInt(-args[0].Int()), nil
			}
			return args[0], nil
		}
		return floatFn(args[0], math.Abs)
	case "sqrt":
		return oneFloat(e, args, math.Sqrt)
	case "ln", "log":
		return oneFloat(e, args, math.Log)
	case "log2":
		return oneFloat(e, args, math.Log2)
	case "log10":
		return oneFloat(e, args, math.Log10)
	case "exp":
		return oneFloat(e, args, math.Exp)
	case "floor":
		return oneFloat(e, args, math.Floor)
	case "ceil", "ceiling":
		return oneFloat(e, args, math.Ceil)
	case "round":
		return oneFloat(e, args, math.Round)
	case "pow", "power":
		if err := wantArgs(e, args, 2); err != nil {
			return value.Value{}, err
		}
		return value.Pow(args[0], args[1])
	case "length":
		if err := wantArgs(e, args, 1); err != nil {
			return value.Value{}, err
		}
		if args[0].IsNull() {
			return value.Null(value.Integer), nil
		}
		s, err := args[0].Convert(value.String)
		if err != nil {
			return value.Value{}, err
		}
		return value.NewInt(int64(len(s.Str()))), nil
	case "lower", "upper":
		if err := wantArgs(e, args, 1); err != nil {
			return value.Value{}, err
		}
		if args[0].IsNull() {
			return value.Null(value.String), nil
		}
		s, err := args[0].Convert(value.String)
		if err != nil {
			return value.Value{}, err
		}
		if e.Name == "lower" {
			return value.NewString(strings.ToLower(s.Str())), nil
		}
		return value.NewString(strings.ToUpper(s.Str())), nil
	case "coalesce":
		for _, a := range args {
			if !a.IsNull() {
				return a, nil
			}
		}
		if len(args) == 0 {
			return value.Value{}, errorf("coalesce needs at least one argument")
		}
		return args[len(args)-1], nil
	case "greatest", "least":
		if len(args) == 0 {
			return value.Value{}, errorf("%s needs at least one argument", e.Name)
		}
		best := args[0]
		for _, a := range args[1:] {
			c := value.Compare(a, best)
			if e.Name == "greatest" && c > 0 || e.Name == "least" && c < 0 {
				best = a
			}
		}
		return best, nil
	}
	return value.Value{}, errorf("unknown function %q", e.Name)
}

func wantArgs(e *funcExpr, args []value.Value, n int) error {
	if len(args) != n {
		return errorf("%s expects %d argument(s), got %d", e.Name, n, len(args))
	}
	return nil
}

func oneFloat(e *funcExpr, args []value.Value, f func(float64) float64) (value.Value, error) {
	if err := wantArgs(e, args, 1); err != nil {
		return value.Value{}, err
	}
	return floatFn(args[0], f)
}

func floatFn(v value.Value, f func(float64) float64) (value.Value, error) {
	if v.IsNull() {
		return value.Null(value.Float), nil
	}
	if !v.Type().Numeric() {
		return value.Value{}, errorf("numeric argument required, got %s", v.Type())
	}
	return value.NewFloat(f(v.Float())), nil
}

// collectAggs walks an expression tree and appends all aggregate
// sub-expressions to out.
func collectAggs(e sqlExpr, out *[]*aggExpr) {
	switch t := e.(type) {
	case *aggExpr:
		*out = append(*out, t)
	case *binExpr:
		collectAggs(t.L, out)
		collectAggs(t.R, out)
	case *unaryExpr:
		collectAggs(t.E, out)
	case *isNullExpr:
		collectAggs(t.E, out)
	case *inExpr:
		collectAggs(t.E, out)
		for _, x := range t.List {
			collectAggs(x, out)
		}
	case *betweenExpr:
		collectAggs(t.E, out)
		collectAggs(t.Lo, out)
		collectAggs(t.Hi, out)
	case *funcExpr:
		for _, x := range t.Args {
			collectAggs(x, out)
		}
	case *castExpr:
		collectAggs(t.E, out)
	}
}

// exprType predicts the result type of an expression against the
// schema of ec, used to type columns of CREATE TABLE AS SELECT and
// projections. It evaluates cheaply: literals and column refs are
// exact, arithmetic follows the numeric promotion rules, aggregates
// follow their result rules; anything else defaults to Float for
// numeric-looking operators and String otherwise.
func exprType(e sqlExpr, ec *evalCtx) value.Type {
	switch t := e.(type) {
	case *litExpr:
		return t.v.Type()
	case *colExpr:
		if i, err := ec.lookup(t.Table, t.Name); err == nil {
			return ec.schema[i].Type
		}
		return value.String
	case *castExpr:
		return t.To
	case *unaryExpr:
		if t.Op == "not" {
			return value.Boolean
		}
		return exprType(t.E, ec)
	case *binExpr:
		switch t.Op {
		case "+", "-", "*", "/", "%":
			lt := exprType(t.L, ec)
			rt := exprType(t.R, ec)
			if lt == value.Integer && rt == value.Integer {
				return value.Integer
			}
			return value.Float
		case "||":
			return value.String
		default:
			return value.Boolean
		}
	case *isNullExpr, *inExpr, *betweenExpr:
		return value.Boolean
	case *aggExpr:
		arg := value.Integer
		if !t.Star {
			arg = exprType(t.Arg, ec)
		}
		typ, _ := AggResultType(t.Name, arg)
		return typ
	case *funcExpr:
		switch t.Name {
		case "length":
			return value.Integer
		case "lower", "upper":
			return value.String
		case "coalesce", "greatest", "least", "abs":
			if len(t.Args) > 0 {
				return exprType(t.Args[0], ec)
			}
		}
		return value.Float
	}
	return value.String
}
