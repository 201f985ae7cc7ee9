package sqldb

// The expression compiler. Every expression a statement runs — WHERE,
// projection items, GROUP BY keys, aggregate arguments, HAVING, ORDER
// BY, UPDATE's SET, a join's ON, the values of INSERT ... VALUES — is
// typed once at plan time into a tree of texpr nodes: column references
// resolved to row offsets, constant subtrees folded to literals, and
// every node carrying the type a projection of it declares and whether
// any row can make it fail. Three back ends lower the typed form:
//
//	row    closures over one boxed row (compile.go): the semantic
//	       reference, and the one back end every node has.
//	batch  mask kernels over a morsel's column vectors (vector.go). A
//	       node with no kernel of its own runs the row back end's
//	       closure inside the batch, over the columns it reads.
//	zone   interval bounds over a block's zone maps (vector.go): a node
//	       it cannot bound cannot prune.
//
// The batch and zone back ends take only a WHERE that is total and reads
// no Timestamp column (texpr.vectorizable): a kernel cannot report an
// error, and neither a pruned block nor the right side of an AND
// evaluated on rows its left side rejected may hide one that the row
// back end raises.

import (
	"cmp"
	"container/list"
	"math"
	"regexp"
	"slices"
	"strings"
	"sync"

	"perfbase/internal/value"
)

// tkind is what a typed node computes.
type tkind uint8

const (
	tLit     tkind = iota // v
	tCol                  // the row's column col
	tErr                  // err, an unresolved reference, raised per row evaluated
	tBin                  // l op r: arithmetic, ||, a comparison, AND, OR, LIKE
	tNeg                  // -l
	tNot                  // NOT l
	tIsNull               // l IS [NOT] NULL
	tIn                   // l [NOT] IN (list)
	tBetween              // l [NOT] BETWEEN r AND x
	tFunc                 // the scalar function op over list
	tAgg                  // the aggregate agg over l, nil for COUNT(*)
	tCast                 // CAST(l AS typ)
)

// texpr is one node of a typed expression.
type texpr struct {
	kind tkind
	// typ is the type a projection of the node declares: a column's or a
	// literal's own, Integer for arithmetic over Integers and Float over
	// anything else, an aggregate's AggResultType, Boolean for every
	// predicate.
	typ value.Type
	// total: no row can make the node fail — and typ is then the type of
	// every value it yields, NULLs included. Of a node over stored rows
	// this is exact: a table's column holds values of its type only.
	total   bool
	negate  bool // NOT IN, NOT BETWEEN, IS NOT NULL
	col     int
	op      string
	l, r, x *texpr
	list    []*texpr
	v       value.Value
	err     error
	agg     *aggExpr // the key of its result in execCtx.aggs
}

// evalCtx types expressions against one schema: it resolves column
// names and holds the nodes of what it typed.
type evalCtx struct {
	schema Schema
	byName map[string]int // lower-cased plain and qualified names
	nodes  []texpr        // the chunk node cuts from
}

// nodeChunk is how many nodes the first chunk of a context holds, each
// next chunk twice the last: the expressions of a plan usually fit the
// first.
const nodeChunk = 8

// evalCtxs recycles contexts, name map and node chunk included, from
// plan to plan: no plan keeps a node, or the context, once it is built.
var evalCtxs = sync.Pool{New: func() any { return &evalCtx{byName: map[string]int{}} }}

func newEvalCtx(schema Schema) *evalCtx {
	ec := evalCtxs.Get().(*evalCtx)
	ec.schema = schema
	ambiguous := map[string]bool{}
	for i, c := range schema {
		key := lower(c.Name)
		if _, dup := ec.byName[key]; dup {
			ambiguous[key] = true
		} else {
			ec.byName[key] = i
		}
		// Qualified result columns keep their full "t.c" name; also
		// register the bare column part for unqualified references.
		if dot := lastDot(c.Name); dot >= 0 {
			bare := lower(c.Name[dot+1:])
			if _, dup := ec.byName[bare]; dup {
				ambiguous[bare] = true
			} else {
				ec.byName[bare] = i
			}
		}
	}
	for k := range ambiguous {
		delete(ec.byName, k)
	}
	// Re-add fully qualified names unconditionally: they are exact.
	for i, c := range schema {
		ec.byName[lower(c.Name)] = i
	}
	return ec
}

// lookup resolves a possibly qualified column reference.
func (ec *evalCtx) lookup(table, name string) (int, error) {
	key := lower(name)
	if table != "" {
		key = lower(table) + "." + key
	}
	if i, ok := ec.byName[key]; ok {
		return i, nil
	}
	return 0, errorf("unknown column %q", key)
}

// free gives ec back for reuse. Neither ec nor any node it typed may be
// used afterwards.
func (ec *evalCtx) free() {
	clear(ec.byName)
	ec.schema, ec.nodes = nil, ec.nodes[:0]
	evalCtxs.Put(ec)
}

func (ec *evalCtx) node() *texpr {
	if len(ec.nodes) == cap(ec.nodes) {
		ec.nodes = make([]texpr, 0, max(nodeChunk, 2*cap(ec.nodes)))
	}
	ec.nodes = ec.nodes[:len(ec.nodes)+1]
	n := &ec.nodes[len(ec.nodes)-1]
	*n = texpr{}
	return n
}

// typed types e against ec's schema.
func (ec *evalCtx) typed(e sqlExpr) *texpr {
	n := ec.node()
	switch t := e.(type) {
	case *litExpr:
		n.kind, n.typ, n.total, n.v = tLit, t.v.Type(), true, t.v
		return n
	case *colExpr:
		i, err := ec.lookup(t.Table, t.Name)
		if err != nil {
			n.kind, n.typ, n.err = tErr, value.String, err
			return n
		}
		n.kind, n.typ, n.total, n.col = tCol, ec.schema[i].Type, true, i
		return n
	case *binExpr:
		n.kind, n.op, n.l, n.r = tBin, t.Op, ec.typed(t.L), ec.typed(t.R)
		n.typ, n.total = value.Boolean, n.l.total && n.r.total
		switch _, isCmp := cmpOps[t.Op]; t.Op {
		case "+", "-", "*", "/", "%":
			n.typ = value.Float
			if n.l.typ == value.Integer && n.r.typ == value.Integer {
				n.typ = value.Integer
			}
			// Only numbers add up, any quotient can be one by zero, and an
			// integer remainder too.
			n.total = n.total && n.l.typ.Numeric() && n.r.typ.Numeric() &&
				t.Op != "/" && (t.Op != "%" || n.typ == value.Float)
		case "||":
			n.typ = value.String
		case "and", "or":
			// Only a Boolean operand cannot make them fail.
			n.total = n.total && n.l.typ == value.Boolean && n.r.typ == value.Boolean
		case "like":
		default:
			if !isCmp {
				n.kind, n.total, n.err = tErr, false, errorf("unknown operator %q", t.Op)
				return n
			}
		}
	case *unaryExpr:
		n.l = ec.typed(t.E)
		switch t.Op {
		case "-":
			n.kind, n.typ, n.total = tNeg, n.l.typ, n.l.total && n.l.typ.Numeric()
		case "not":
			n.kind, n.typ, n.total = tNot, value.Boolean, n.l.total && n.l.typ == value.Boolean
		default:
			n.kind, n.typ, n.err = tErr, n.l.typ, errorf("unknown unary operator %q", t.Op)
			return n
		}
	case *isNullExpr:
		n.kind, n.typ, n.negate, n.l = tIsNull, value.Boolean, t.Negate, ec.typed(t.E)
		n.total = n.l.total
	case *inExpr:
		n.kind, n.typ, n.negate, n.l = tIn, value.Boolean, t.Negate, ec.typed(t.E)
		n.list, n.total = ec.typedList(t.List)
		n.total = n.total && n.l.total
	case *betweenExpr:
		n.kind, n.typ, n.negate = tBetween, value.Boolean, t.Negate
		n.l, n.r, n.x = ec.typed(t.E), ec.typed(t.Lo), ec.typed(t.Hi)
		n.total = n.l.total && n.r.total && n.x.total
	case *funcExpr:
		n.kind, n.op, n.typ = tFunc, t.Name, value.Float
		n.list, _ = ec.typedList(t.Args)
		switch t.Name {
		case "length":
			n.typ = value.Integer
		case "lower", "upper":
			n.typ = value.String
		case "coalesce", "greatest", "least", "abs":
			if len(n.list) > 0 {
				n.typ = n.list[0].typ
			}
		case "if":
			if len(n.list) > 1 {
				n.typ = n.list[1].typ
			}
		}
	case *aggExpr:
		n.kind, n.agg = tAgg, t
		arg := value.Integer
		if !t.Star {
			n.l = ec.typed(t.Arg)
			arg = n.l.typ
		}
		n.typ, _ = AggResultType(t.Name, arg)
		return n
	case *castExpr:
		n.kind, n.typ, n.l = tCast, t.To, ec.typed(t.E)
	default:
		n.kind, n.typ, n.err = tErr, value.String, errorf("unknown expression %T", e)
		return n
	}
	n.fold()
	return n
}

func (ec *evalCtx) typedList(es []sqlExpr) ([]*texpr, bool) {
	out, total := make([]*texpr, len(es)), true
	for i, e := range es {
		out[i] = ec.typed(e)
		total = total && out[i].total
	}
	return out, total
}

// noRow is the context of an expression over no columns. Nothing
// writes it.
var noRow execCtx

// fold replaces n by the literal it evaluates to when all its operands
// are literals, the evaluation succeeds and the value is of the type n
// declares. A node that fails stays, to fail per row as any other; so
// does one whose value would contradict its type (GREATEST(1, 'a')).
func (n *texpr) fold() {
	if !n.kids(func(k *texpr) bool { return k.kind == tLit }) {
		return
	}
	if v, err := rowExpr(n)(&noRow); err == nil && v.Type() == n.typ {
		*n = texpr{kind: tLit, typ: n.typ, total: true, v: v}
	}
}

// kids calls f on every operand of n until f returns false, and reports
// whether none did.
func (n *texpr) kids(f func(*texpr) bool) bool {
	for _, k := range [...]*texpr{n.l, n.r, n.x} {
		if k != nil && !f(k) {
			return false
		}
	}
	for _, k := range n.list {
		if !f(k) {
			return false
		}
	}
	return true
}

// resolved reports whether n holds no error node: whether every
// reference in it resolved at plan time.
func (n *texpr) resolved() bool {
	return n.kind != tErr && n.kids((*texpr).resolved)
}

// columns returns the columns n reads, each once.
func (n *texpr) columns() []int {
	var cols []int
	var walk func(*texpr) bool
	walk = func(k *texpr) bool {
		if k.kind == tCol && !slices.Contains(cols, k.col) {
			cols = append(cols, k.col)
		}
		return k.kids(walk)
	}
	walk(n)
	return cols
}

// vectorizable reports whether the batch and zone back ends may run n, a
// WHERE clause over rows of schema src: n is total and reads no
// Timestamp column, which has no vectors.
func (n *texpr) vectorizable(src Schema) bool {
	if !n.total {
		return false
	}
	for _, ci := range n.columns() {
		if src[ci].Type == value.Timestamp {
			return false
		}
	}
	return true
}

// cmpOps is the one definition of what a comparison accepts: per
// operator, ok[c+1] for c, the outcome of value.Compare(left, right).
var cmpOps = map[string][3]bool{
	"=": {false, true, false}, "<>": {true, false, true},
	"<": {true, false, false}, "<=": {true, true, false},
	">": {false, false, true}, ">=": {false, true, true},
}

// cmp3 is value.Compare over two datums of one class with an unboxed
// order: -1, 0 or 1, and 0 when neither is less — which makes a float
// NaN equal to everything, as value.Compare does.
func cmp3[T cmp.Ordered](a, b T) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

// cmpColLit reports whether n compares a column with a literal; ok is
// then the table of the outcomes of Compare(column, literal) that make
// it true, mirrored when the literal is the left operand.
func (n *texpr) cmpColLit() (col int, lit value.Value, ok [3]bool, is bool) {
	if n.kind != tBin {
		return
	}
	switch ok, is = cmpOps[n.op]; {
	case !is:
	case n.l.kind == tCol && n.r.kind == tLit:
		return n.l.col, n.r.v, ok, true
	case n.l.kind == tLit && n.r.kind == tCol:
		return n.r.col, n.l.v, [3]bool{ok[2], ok[1], ok[0]}, true
	}
	return 0, value.Value{}, ok, false
}

// valuesRows evaluates the rows of an INSERT ... VALUES. A value is an
// expression over no columns: a literal is itself, anything else is
// typed — which folds what is constant — and evaluated by the row back
// end. Every reader of VALUES lists comes here: execInsert, LiteralRows
// and a view's replay.
func valuesRows(st *InsertStmt) ([]Row, error) {
	var ec *evalCtx
	rows := make([]Row, len(st.Rows))
	for ri, exprs := range st.Rows {
		row := make(Row, len(exprs))
		for i, e := range exprs {
			if lit, ok := e.(*litExpr); ok {
				row[i] = lit.v
				continue
			}
			if ec == nil {
				ec = newEvalCtx(nil)
			}
			var err error
			if row[i], err = rowExpr(ec.typed(e))(&noRow); err != nil {
				return nil, err
			}
			ec.nodes = ec.nodes[:0] // the value is out: its nodes are free again
		}
		rows[ri] = row
	}
	return rows, nil
}

// CompileExpr compiles one expression of the statement grammar over a
// row of cols, for a caller that evaluates it outside any statement: the
// statement parser's expression rule parses it, and it is typed and
// lowered to the row back end as a statement's expressions are. As in a
// statement, a name that is no column of cols fails each evaluation. The
// function is safe for concurrent use.
func CompileExpr(sql string, cols Schema) (func(Row) (value.Value, error), error) {
	toks, err := lexSQL(sql)
	if err != nil {
		return nil, err
	}
	p := &sqlParser{toks: toks, src: sql}
	e, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if !p.atEOF() {
		return nil, errorf("trailing input after expression near %q", p.cur().text)
	}
	ec := newEvalCtx(cols)
	eval := rowExpr(ec.typed(e))
	ec.free()
	return func(row Row) (value.Value, error) { return eval(&execCtx{row: row}) }, nil
}

func boolTrue(v value.Value) bool {
	return !v.IsNull() && v.Type() == value.Boolean && v.Bool()
}

func boolFalse(v value.Value) bool {
	return !v.IsNull() && v.Type() == value.Boolean && !v.Bool()
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

// ------------------------------------------------------------- LIKE

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

// likePattern translates a SQL LIKE pattern to a compiled regexp.
func likePattern(p string) (*regexp.Regexp, error) {
	if re := likeCache.get(p); re != nil {
		return re, nil
	}
	var sb strings.Builder
	sb.WriteString("(?is)^")
	for _, r := range p {
		switch r {
		case '%':
			sb.WriteString(".*")
		case '_':
			sb.WriteString(".")
		default:
			sb.WriteString(regexp.QuoteMeta(string(r)))
		}
	}
	sb.WriteString("$")
	re, err := regexp.Compile(sb.String())
	if err != nil {
		return nil, errorf("bad LIKE pattern %q: %v", p, err)
	}
	likeCache.put(p, re)
	return re, nil
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

// --------------------------------------------------------- functions

// applyFunc applies the scalar function name to evaluated arguments.
func applyFunc(name string, args []value.Value) (value.Value, error) {
	switch name {
	case "abs":
		if err := wantArgs(name, args, 1); err != nil {
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
		return oneFloat(name, args, math.Sqrt)
	case "ln", "log":
		return oneFloat(name, args, math.Log)
	case "log2":
		return oneFloat(name, args, math.Log2)
	case "log10":
		return oneFloat(name, args, math.Log10)
	case "exp":
		return oneFloat(name, args, math.Exp)
	case "floor":
		return oneFloat(name, args, math.Floor)
	case "ceil", "ceiling":
		return oneFloat(name, args, math.Ceil)
	case "round":
		return oneFloat(name, args, math.Round)
	case "sin":
		return oneFloat(name, args, math.Sin)
	case "cos":
		return oneFloat(name, args, math.Cos)
	case "tan":
		return oneFloat(name, args, math.Tan)
	case "if":
		if err := wantArgs(name, args, 3); err != nil {
			return value.Value{}, err
		}
		yes, err := ifTrue(args[0])
		switch {
		case err != nil:
			return value.Value{}, err
		case yes:
			return args[1], nil
		}
		return args[2], nil
	case "pow", "power":
		if err := wantArgs(name, args, 2); err != nil {
			return value.Value{}, err
		}
		return value.Pow(args[0], args[1])
	case "length":
		if err := wantArgs(name, args, 1); err != nil {
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
		if err := wantArgs(name, args, 1); err != nil {
			return value.Value{}, err
		}
		if args[0].IsNull() {
			return value.Null(value.String), nil
		}
		s, err := args[0].Convert(value.String)
		if err != nil {
			return value.Value{}, err
		}
		if name == "lower" {
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
			return value.Value{}, errorf("%s needs at least one argument", name)
		}
		best := args[0]
		for _, a := range args[1:] {
			c := value.Compare(a, best)
			if name == "greatest" && c > 0 || name == "least" && c < 0 {
				best = a
			}
		}
		return best, nil
	}
	return value.Value{}, errorf("unknown function %q", name)
}

// ifTrue reports whether IF's condition c picks the second argument: a
// TRUE does, FALSE and NULL pick the third, anything else is an error.
func ifTrue(c value.Value) (bool, error) {
	if !c.IsNull() && c.Type() != value.Boolean {
		return false, errorf("IF condition must be boolean, got %s", c.Type())
	}
	return boolTrue(c), nil
}

func wantArgs(name string, args []value.Value, n int) error {
	if len(args) != n {
		return errorf("%s expects %d argument(s), got %d", name, n, len(args))
	}
	return nil
}

func oneFloat(name string, args []value.Value, f func(float64) float64) (value.Value, error) {
	if err := wantArgs(name, args, 1); err != nil {
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
