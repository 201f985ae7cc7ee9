package value

import (
	"math"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestTypeFromString(t *testing.T) {
	cases := map[string]Type{
		"integer": Integer, "INT": Integer, "int8": Integer,
		"float": Float, "double": Float, "real": Float,
		"string": String, "text": String,
		"timestamp": Timestamp, "date": Timestamp,
		"boolean": Boolean, "bool": Boolean,
		"version": Version, "revision": Version,
	}
	for in, want := range cases {
		got, err := TypeFromString(in)
		if err != nil {
			t.Fatalf("TypeFromString(%q): %v", in, err)
		}
		if got != want {
			t.Errorf("TypeFromString(%q) = %v, want %v", in, got, want)
		}
	}
	if _, err := TypeFromString("quaternion"); err == nil {
		t.Error("TypeFromString accepted an unknown type")
	}
}

func TestTypeString(t *testing.T) {
	if Integer.String() != "integer" || Float.String() != "float" {
		t.Errorf("unexpected type names: %s %s", Integer, Float)
	}
	if Type(99).String() == "" {
		t.Error("unknown type produced empty name")
	}
}

func TestConstructorsAndAccessors(t *testing.T) {
	ts := time.Date(2004, 11, 23, 18, 30, 30, 0, time.UTC)
	if v := NewInt(42); v.Type() != Integer || v.Int() != 42 || v.IsNull() {
		t.Errorf("NewInt broken: %+v", v)
	}
	if v := NewFloat(2.5); v.Float() != 2.5 {
		t.Errorf("NewFloat broken: %+v", v)
	}
	if v := NewInt(7); v.Float() != 7.0 {
		t.Error("Int.Float() should convert")
	}
	if v := NewString("hi"); v.Str() != "hi" {
		t.Errorf("NewString broken: %+v", v)
	}
	if v := NewTimestamp(ts); !v.Time().Equal(ts) {
		t.Errorf("NewTimestamp broken: %+v", v)
	}
	if v := NewBool(true); !v.Bool() {
		t.Errorf("NewBool broken: %+v", v)
	}
	if v := Null(Float); !v.IsNull() || v.Type() != Float {
		t.Errorf("Null broken: %+v", v)
	}
}

func TestValueString(t *testing.T) {
	cases := []struct {
		v    Value
		want string
	}{
		{NewInt(-3), "-3"},
		{NewFloat(1.25), "1.25"},
		{NewString("abc"), "abc"},
		{NewBool(false), "false"},
		{Null(String), "NULL"},
		{NewVersion("2.6.6"), "2.6.6"},
		{NewTimestamp(time.Date(2004, 11, 23, 18, 30, 30, 0, time.UTC)), "2004-11-23T18:30:30Z"},
		{NewTimestamp(time.Date(2004, 11, 23, 18, 30, 30, 5e8, time.UTC)), "2004-11-23T18:30:30.5Z"},
	}
	for _, c := range cases {
		if got := c.v.String(); got != c.want {
			t.Errorf("String() = %q, want %q", got, c.want)
		}
	}
}

func TestSQLQuoting(t *testing.T) {
	if got := NewString("o'brien").SQL(); got != "'o''brien'" {
		t.Errorf("SQL() = %q", got)
	}
	if got := Null(Integer).SQL(); got != "NULL" {
		t.Errorf("SQL() of NULL = %q", got)
	}
	if got := NewBool(true).SQL(); got != "TRUE" {
		t.Errorf("SQL() of true = %q", got)
	}
}

func TestParseStrict(t *testing.T) {
	v, err := Parse(Integer, " 123 ")
	if err != nil || v.Int() != 123 {
		t.Fatalf("Parse int: %v %v", v, err)
	}
	if v, err = Parse(Integer, "1e3"); err != nil || v.Int() != 1000 {
		t.Fatalf("Parse int 1e3: %v %v", v, err)
	}
	if _, err = Parse(Integer, "1.5"); err == nil {
		t.Error("Parse accepted non-integral float as integer")
	}
	if v, err = Parse(Float, "-2.75e2"); err != nil || v.Float() != -275 {
		t.Fatalf("Parse float: %v %v", v, err)
	}
	if _, err = Parse(Float, "abc"); err == nil {
		t.Error("Parse accepted garbage float")
	}
	if v, _ = Parse(String, "  hello world "); v.Str() != "hello world" {
		t.Errorf("Parse string = %q", v.Str())
	}
	if v, _ = Parse(Integer, "   "); !v.IsNull() {
		t.Error("blank input should parse to NULL")
	}
	for _, s := range []string{"true", "Yes", "on", "1", "enabled"} {
		if v, err := Parse(Boolean, s); err != nil || !v.Bool() {
			t.Errorf("Parse(Boolean, %q) = %v, %v", s, v, err)
		}
	}
	for _, s := range []string{"false", "No", "off", "0", "disabled"} {
		if v, err := Parse(Boolean, s); err != nil || v.Bool() {
			t.Errorf("Parse(Boolean, %q) = %v, %v", s, v, err)
		}
	}
	if _, err := Parse(Boolean, "maybe"); err == nil {
		t.Error("Parse accepted garbage boolean")
	}
}

func TestParseTimestampLayouts(t *testing.T) {
	want := time.Date(2004, 11, 23, 18, 30, 30, 0, time.UTC)
	inputs := []string{
		"2004-11-23T18:30:30Z",
		"2004-11-23 18:30:30",
		"Tue Nov 23 18:30:30 2004",
	}
	for _, in := range inputs {
		v, err := Parse(Timestamp, in)
		if err != nil {
			t.Fatalf("Parse(%q): %v", in, err)
		}
		if !v.Time().Equal(want) {
			t.Errorf("Parse(%q) = %v, want %v", in, v.Time(), want)
		}
	}
	// Unix seconds.
	v, err := Parse(Timestamp, "1101234630")
	if err != nil || v.Time().Unix() != 1101234630 {
		t.Errorf("unix seconds parse: %v %v", v, err)
	}
	if _, err := Parse(Timestamp, "not a date"); err == nil {
		t.Error("Parse accepted garbage timestamp")
	}
	// A zoned input keeps its instant, not its zone.
	if v, err := Parse(Timestamp, "2004-11-23T19:30:30+01:00"); err != nil || v != NewTimestamp(want) || v.String() != "2004-11-23T18:30:30Z" {
		t.Errorf("zoned parse: %v %v", v, err)
	}
	// The range is int64 nanoseconds since the Unix epoch: Parse and
	// Convert refuse what lies outside it, naming the range, instead of
	// wrapping.
	for _, c := range []struct {
		in string
		ok bool
	}{
		{"1677-09-21T00:12:43.145224192Z", true},
		{"1677-09-21T00:12:43.145224191Z", false},
		{"2262-04-11T23:47:16.854775807Z", true},
		{"2262-04-11T23:47:16.854775808Z", false},
		{"1600-01-01", false},
		{"2300-01-01", false},
		{"-9223372036", true},
		{"-9223372037", false},
		{"9223372036", true},
		{"9223372037", false},
		{"99999999999999", false},
	} {
		v, err := Parse(Timestamp, c.in)
		if c.ok {
			if err != nil {
				t.Errorf("Parse(%q): %v", c.in, err)
			} else if back, err := Parse(Timestamp, v.String()); err != nil || back != v {
				t.Errorf("Parse(%q) = %v does not read back: %v %v", c.in, v, back, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), "1677-09-21T00:12:43.145224192Z to 2262-04-11T23:47:16.854775807Z") {
			t.Errorf("Parse(%q) = %v, %v; want an error naming the range", c.in, v, err)
		}
		if n, perr := strconv.ParseInt(c.in, 10, 64); perr == nil {
			if v, err := NewInt(n).Convert(Timestamp); err == nil {
				t.Errorf("Convert(%d) = %v, want an error", n, v)
			}
		} else if v, err := NewString(c.in).Convert(Timestamp); err == nil {
			t.Errorf("Convert(%q) = %v, want an error", c.in, v)
		}
	}
}

func TestSmartParse(t *testing.T) {
	// The shapes that appear in b_eff_io output.
	v, err := SmartParse(Float, "=       2.000 MBytes")
	if err != nil || v.Float() != 2.0 {
		t.Fatalf("SmartParse chunk size: %v %v", v, err)
	}
	v, err = SmartParse(Integer, ": 256 MBytes [1MBytes = 1024*1024 bytes]")
	if err != nil || v.Int() != 256 {
		t.Fatalf("SmartParse memory: %v %v", v, err)
	}
	v, err = SmartParse(Float, "  214.516 MB/s on 4 processes")
	if err != nil || v.Float() != 214.516 {
		t.Fatalf("SmartParse bandwidth: %v %v", v, err)
	}
	v, err = SmartParse(String, " grisu0.ccrl-nece.de ")
	if err != nil || v.Str() != "grisu0.ccrl-nece.de" {
		t.Fatalf("SmartParse hostname: %v %v", v, err)
	}
	v, err = SmartParse(Timestamp, " Tue Nov 23 18:30:30 2004")
	if err != nil || v.Time().Year() != 2004 {
		t.Fatalf("SmartParse date: %v %v", v, err)
	}
	v, err = SmartParse(Version, " 2.6.6 #1 SMP")
	if err != nil || v.Str() != "2.6.6" {
		t.Fatalf("SmartParse version: %v %v", v, err)
	}
	v, err = SmartParse(Integer, "-17 apples")
	if err != nil || v.Int() != -17 {
		t.Fatalf("SmartParse negative: %v %v", v, err)
	}
	v, err = SmartParse(Float, " 60.848 MB/s write, 63.429 MB/s rewrite")
	if err != nil || v.Float() != 60.848 {
		t.Fatalf("SmartParse inline: %v %v", v, err)
	}
	// SmartParse takes the FIRST number-like token; digits embedded in
	// identifiers count, which is why named locations must anchor the
	// match behind the full keyword.
	v, err = SmartParse(Integer, "pat2= 60")
	if err != nil || v.Int() != 2 {
		t.Fatalf("SmartParse embedded digit: %v %v", v, err)
	}
	if _, err = SmartParse(Float, "no numbers here"); err == nil {
		t.Error("SmartParse found a number in prose")
	}
	if v, _ := SmartParse(Integer, "   "); !v.IsNull() {
		t.Error("SmartParse of blank should be NULL")
	}
}

func TestFirstNumberToken(t *testing.T) {
	cases := map[string]string{
		"abc 12.5e-3 def": "12.5e-3",
		"x=-4":            "-4",
		"v1.2.3":          "1.2",
		"+.5":             "+.5",
		"- 3":             "3",
		"1e":              "1",
		"e5":              "5",
	}
	for in, want := range cases {
		if got := firstNumberToken(in); got != want {
			t.Errorf("firstNumberToken(%q) = %q, want %q", in, got, want)
		}
	}
	if got := firstNumberToken("none"); got != "" {
		t.Errorf("firstNumberToken of prose = %q", got)
	}
}

func TestCompareNumericCross(t *testing.T) {
	nan, negZero := math.NaN(), math.Copysign(0, -1)
	cases := []struct {
		a, b Value
		want int
	}{
		{NewInt(2), NewFloat(2.0), 0},
		{NewInt(2), NewFloat(2.5), -1},
		{NewFloat(3), NewInt(2), 1},
		{NewInt(-3), NewFloat(-2.5), -1},
		// NaN equals only NaN, whatever its payload, and sorts below
		// every number.
		{NewFloat(nan), NewFloat(nan), 0},
		{NewFloat(nan), NewFloat(math.Float64frombits(0xfff0000000000001)), 0},
		{NewFloat(nan), NewFloat(math.Inf(-1)), -1},
		{NewFloat(nan), NewInt(math.MinInt64), -1},
		{NewInt(0), NewFloat(nan), 1},
		{NewFloat(negZero), NewFloat(0), 0},
		{NewFloat(negZero), NewInt(0), 0},
		// Integer against Float is exact past 2^53.
		{NewInt(1<<53 + 1), NewFloat(1 << 53), 1},
		{NewInt(1 << 53), NewFloat(1 << 53), 0},
		{NewInt(1<<53 - 1), NewFloat(1 << 53), -1},
		{NewInt(math.MaxInt64), NewFloat(0x1p63), -1},
		{NewInt(math.MinInt64), NewFloat(-0x1p63), 0},
		{NewInt(math.MinInt64 + 1), NewFloat(-0x1p63), 1},
		{NewInt(math.MaxInt64), NewFloat(math.Inf(1)), -1},
		{NewInt(math.MinInt64), NewFloat(math.Inf(-1)), 1},
	}
	for _, c := range cases {
		if got := sign(Compare(c.a, c.b)); got != c.want {
			t.Errorf("Compare(%s %v, %s %v) = %d, want %d", c.a.Type(), c.a, c.b.Type(), c.b, got, c.want)
		}
		if got := sign(Compare(c.b, c.a)); got != -c.want {
			t.Errorf("Compare(%s %v, %s %v) = %d, want %d", c.b.Type(), c.b, c.a.Type(), c.a, got, -c.want)
		}
	}
}

func TestCompareNulls(t *testing.T) {
	if Compare(Null(Integer), Null(Float)) != 0 {
		t.Error("NULLs should compare equal")
	}
	if Compare(Null(Integer), NewInt(-1000)) != -1 {
		t.Error("NULL should sort before values")
	}
	if Compare(NewInt(0), Null(Integer)) != 1 {
		t.Error("values should sort after NULL")
	}
}

func TestCompareVersions(t *testing.T) {
	cases := []struct {
		a, b string
		want int
	}{
		{"2.6.6", "2.6.10", -1},
		{"2.6.10", "2.6.6", 1},
		{"2.6", "2.6.1", -1},
		{"1.0", "1.0", 0},
		{"1.2-rc1", "1.2-rc2", -1},
		{"10.0", "9.9", 1},
	}
	for _, c := range cases {
		if got := sign(CompareVersions(c.a, c.b)); got != c.want {
			t.Errorf("CompareVersions(%q,%q) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
	if Compare(NewVersion("2.6.6"), NewVersion("2.6.10")) != -1 {
		t.Error("Version values should compare component-wise")
	}
}

func sign(x int) int {
	switch {
	case x < 0:
		return -1
	case x > 0:
		return 1
	}
	return 0
}

func TestArithmetic(t *testing.T) {
	check := func(v Value, err error, want Value) {
		t.Helper()
		if err != nil {
			t.Fatalf("unexpected error: %v", err)
		}
		if !Equal(v, want) || v.Type() != want.Type() {
			t.Errorf("got %v (%s), want %v (%s)", v, v.Type(), want, want.Type())
		}
	}
	v, err := Add(NewInt(2), NewInt(3))
	check(v, err, NewInt(5))
	v, err = Add(NewInt(2), NewFloat(0.5))
	check(v, err, NewFloat(2.5))
	v, err = Add(NewString("foo"), NewString("bar"))
	check(v, err, NewString("foobar"))
	v, err = Sub(NewFloat(2), NewInt(3))
	check(v, err, NewFloat(-1))
	v, err = Mul(NewInt(4), NewInt(5))
	check(v, err, NewInt(20))
	v, err = Div(NewInt(7), NewInt(2))
	check(v, err, NewInt(3))
	v, err = Div(NewFloat(7), NewInt(2))
	check(v, err, NewFloat(3.5))
	v, err = Mod(NewInt(7), NewInt(4))
	check(v, err, NewInt(3))
	v, err = Neg(NewFloat(2.5))
	check(v, err, NewFloat(-2.5))
	v, err = Pow(NewInt(2), NewInt(10))
	check(v, err, NewFloat(1024))

	if _, err := Div(NewInt(1), NewInt(0)); err == nil {
		t.Error("integer division by zero not reported")
	}
	if _, err := Div(NewFloat(1), NewFloat(0)); err == nil {
		t.Error("float division by zero not reported")
	}
	if _, err := Add(NewBool(true), NewInt(1)); err == nil {
		t.Error("arithmetic on boolean not rejected")
	}
	if v, err := Add(Null(Integer), NewInt(1)); err != nil || !v.IsNull() {
		t.Error("NULL should propagate through Add")
	}
}

func TestConvert(t *testing.T) {
	v, err := NewFloat(3.9).Convert(Integer)
	if err != nil || v.Int() != 3 {
		t.Errorf("float→int: %v %v", v, err)
	}
	v, err = NewInt(3).Convert(Float)
	if err != nil || v.Float() != 3.0 {
		t.Errorf("int→float: %v %v", v, err)
	}
	v, err = NewString("42").Convert(Integer)
	if err != nil || v.Int() != 42 {
		t.Errorf("string→int: %v %v", v, err)
	}
	v, err = NewInt(42).Convert(String)
	if err != nil || v.Str() != "42" {
		t.Errorf("int→string: %v %v", v, err)
	}
	v, err = NewBool(true).Convert(Integer)
	if err != nil || v.Int() != 1 {
		t.Errorf("bool→int: %v %v", v, err)
	}
	v, err = Null(String).Convert(Float)
	if err != nil || !v.IsNull() || v.Type() != Float {
		t.Errorf("NULL convert: %v %v", v, err)
	}
	ts := time.Date(2005, 1, 2, 3, 4, 5, 0, time.UTC)
	v, err = NewTimestamp(ts).Convert(Integer)
	if err != nil || v.Int() != ts.Unix() {
		t.Errorf("timestamp→int: %v %v", v, err)
	}
	v, err = NewInt(ts.Unix()).Convert(Timestamp)
	if err != nil || !v.Time().Equal(ts) {
		t.Errorf("int→timestamp: %v %v", v, err)
	}
	if _, err := NewBool(true).Convert(Timestamp); err == nil {
		t.Error("bool→timestamp should fail")
	}
}

// Property: Compare is antisymmetric and Parse∘String round-trips for
// integers and floats.
func TestQuickCompareAntisymmetric(t *testing.T) {
	f := func(a, b int64) bool {
		va, vb := NewInt(a), NewInt(b)
		return sign(Compare(va, vb)) == -sign(Compare(vb, va))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickIntRoundTrip(t *testing.T) {
	f := func(a int64) bool {
		v, err := Parse(Integer, NewInt(a).String())
		return err == nil && v.Int() == a
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickFloatRoundTrip(t *testing.T) {
	f := func(a float64) bool {
		v, err := Parse(Float, NewFloat(a).String())
		if err != nil {
			return false
		}
		// NaN never round-trips equal; compare representations.
		return v.String() == NewFloat(a).String()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickSQLQuoteRoundTrip(t *testing.T) {
	f := func(s string) bool {
		q := QuoteSQL(s)
		if len(q) < 2 || q[0] != '\'' || q[len(q)-1] != '\'' {
			return false
		}
		// Undo the quoting and compare.
		inner := q[1 : len(q)-1]
		var un []byte
		for i := 0; i < len(inner); i++ {
			if inner[i] == '\'' {
				i++ // skip the doubled quote
			}
			if i < len(inner) {
				un = append(un, inner[i])
			}
		}
		return string(un) == s
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickVersionCompareConsistent(t *testing.T) {
	f := func(a, b uint8, c, d uint8) bool {
		va := NewVersion(versionStr(a, c))
		vb := NewVersion(versionStr(b, d))
		return sign(Compare(va, vb)) == -sign(Compare(vb, va))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestCompareAntisymmetricAcrossTypes: Compare(a, b) == -Compare(b, a)
// for samples of every pair of types, NULLs and NaN among them. The
// samples include strings and numbers whose lexicographic order is not
// their version order ("1.10" against a version "1.9", 10 against a
// version "9"), the shape on which which operand came first used to pick
// the comparison.
func TestCompareAntisymmetricAcrossTypes(t *testing.T) {
	samples := append([]Value{
		Null(Integer), Null(Float), Null(String), Null(Timestamp), Null(Boolean), Null(Version),
		NewInt(-3), NewInt(0), NewInt(9), NewInt(10), NewInt(1 << 60),
		NewFloat(-0.5), NewFloat(0), NewFloat(9.5), NewFloat(1.10), NewFloat(math.NaN()), NewFloat(math.Inf(1)),
		NewString(""), NewString("1.10"), NewString("1.9"), NewString("10"), NewString("abc"), NewString("true"),
		NewTimestamp(time.Date(2004, 1, 1, 0, 0, 0, 0, time.UTC)), NewTimestamp(time.Date(2005, 6, 1, 12, 0, 0, 0, time.UTC)),
		NewBool(false), NewBool(true),
		NewVersion("1.9"), NewVersion("1.10"), NewVersion("2.6.10"), NewVersion("9"), NewVersion("abc"), NewVersion(""),
	}, keyDomain()...)
	for _, a := range samples {
		for _, b := range samples {
			if ab, ba := Compare(a, b), Compare(b, a); ab != -ba {
				t.Errorf("Compare(%s %v, %s %v) = %d but Compare(%[3]s %[4]v, %[1]s %[2]v) = %d",
					a.Type(), a, b.Type(), b, ab, ba)
			}
		}
	}
}

func versionStr(maj, min uint8) string {
	return NewInt(int64(maj)).String() + "." + NewInt(int64(min)).String()
}

func TestArithmeticNullAndErrorPaths(t *testing.T) {
	null := Null(Float)
	one := NewInt(1)
	for name, op := range map[string]func(Value, Value) (Value, error){
		"Sub": Sub, "Mul": Mul, "Mod": Mod, "Pow": Pow,
	} {
		if v, err := op(null, one); err != nil || !v.IsNull() {
			t.Errorf("%s(NULL, 1) = %v, %v", name, v, err)
		}
		if v, err := op(one, null); err != nil || !v.IsNull() {
			t.Errorf("%s(1, NULL) = %v, %v", name, v, err)
		}
		if _, err := op(NewString("x"), one); err == nil {
			t.Errorf("%s on string accepted", name)
		}
	}
	if v, err := Mod(NewFloat(7.5), NewFloat(2)); err != nil || v.Float() != 1.5 {
		t.Errorf("float Mod = %v, %v", v, err)
	}
	if _, err := Mod(NewInt(1), NewInt(0)); err == nil {
		t.Error("Mod by zero accepted")
	}
	if v, err := Neg(Null(Integer)); err != nil || !v.IsNull() {
		t.Errorf("Neg(NULL) = %v, %v", v, err)
	}
	if v, err := Neg(NewInt(-4)); err != nil || v.Int() != 4 {
		t.Errorf("Neg int = %v, %v", v, err)
	}
	if _, err := Neg(NewString("x")); err == nil {
		t.Error("Neg of string accepted")
	}
	if v, err := Sub(NewInt(5), NewInt(2)); err != nil || v.Int() != 3 || v.Type() != Integer {
		t.Errorf("int Sub = %v, %v", v, err)
	}
	if v, err := Mul(NewFloat(1.5), NewInt(2)); err != nil || v.Float() != 3 {
		t.Errorf("mixed Mul = %v, %v", v, err)
	}
}

func TestSQLLiteralForms(t *testing.T) {
	ts := time.Date(2005, 9, 27, 10, 30, 0, 0, time.UTC)
	cases := map[string]Value{
		"42":                     NewInt(42),
		"2.5":                    NewFloat(2.5),
		"FALSE":                  NewBool(false),
		"'2.6.10'":               NewVersion("2.6.10"),
		"'2005-09-27T10:30:00Z'": NewTimestamp(ts),
	}
	for want, v := range cases {
		if got := v.SQL(); got != want {
			t.Errorf("SQL(%v) = %q, want %q", v, got, want)
		}
	}
}

func TestConvertMorePaths(t *testing.T) {
	// Float/boolean → string via display form.
	if v, err := NewFloat(1.5).Convert(String); err != nil || v.Str() != "1.5" {
		t.Errorf("float→string = %v, %v", v, err)
	}
	if v, err := NewBool(false).Convert(Integer); err != nil || v.Int() != 0 {
		t.Errorf("bool→int = %v, %v", v, err)
	}
	if v, err := NewString("3.5").Convert(Float); err != nil || v.Float() != 3.5 {
		t.Errorf("string→float = %v, %v", v, err)
	}
	if v, err := NewString("yes").Convert(Boolean); err != nil || !v.Bool() {
		t.Errorf("string→bool = %v, %v", v, err)
	}
	if v, err := NewInt(3).Convert(Version); err != nil || v.Str() != "3" {
		t.Errorf("int→version = %v, %v", v, err)
	}
	if v, err := NewString("2004-11-23").Convert(Timestamp); err != nil || v.Time().Year() != 2004 {
		t.Errorf("string→timestamp = %v, %v", v, err)
	}
	ts := time.Date(2005, 1, 1, 0, 0, 0, 500000000, time.UTC)
	if v, err := NewTimestamp(ts).Convert(Float); err != nil || v.Float() != float64(ts.UnixNano())/1e9 {
		t.Errorf("timestamp→float = %v, %v", v, err)
	}
	// Same-type conversion is identity.
	if v, err := NewInt(7).Convert(Integer); err != nil || v.Int() != 7 {
		t.Errorf("identity convert = %v, %v", v, err)
	}
	// Impossible conversions.
	if _, err := NewFloat(1).Convert(Boolean); err == nil {
		t.Error("float→bool accepted")
	}
}

func TestCompareMixedTypes(t *testing.T) {
	// Version vs string compares component-wise via the version side.
	if Compare(NewVersion("2.10"), NewString("2.9")) <= 0 {
		t.Error("version-vs-string comparison should be component-wise")
	}
	// String vs integer falls back to display comparison.
	if Compare(NewString("abc"), NewInt(5)) == 0 {
		t.Error("string vs int compared equal")
	}
	// Boolean ordering: false < true.
	if Compare(NewBool(false), NewBool(true)) >= 0 {
		t.Error("false should sort before true")
	}
	if Compare(NewBool(true), NewBool(true)) != 0 {
		t.Error("equal booleans")
	}
	ts1 := NewTimestamp(time.Date(2004, 1, 1, 0, 0, 0, 0, time.UTC))
	ts2 := NewTimestamp(time.Date(2005, 1, 1, 0, 0, 0, 0, time.UTC))
	if Compare(ts1, ts2) >= 0 || Compare(ts2, ts1) <= 0 || Compare(ts1, ts1) != 0 {
		t.Error("timestamp ordering")
	}
}
