package value

import (
	"cmp"
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Compare orders a and b. It returns a negative number when a < b,
// zero when equal, positive when a > b. NULL sorts before every
// non-NULL value; two NULLs compare equal. Numbers compare by magnitude
// across Integer and Float, exactly — an Integer is never rounded to a
// float — in cmp.Compare's order: a NaN equals only NaN and sorts below
// every other number, and −0 equals 0. When either operand is a
// Version, both compare component-wise as versions, the other by its
// display form. Compare is antisymmetric: Compare(a, b) == -Compare(b, a).
// Within one key class it is a total order, whose equality AppendKey
// encodes.
func Compare(a, b Value) int { return ComparePtr(&a, &b) }

// ComparePtr is Compare without copying its operands; the SQL
// executor's compiled row filters compare values in place.
func ComparePtr(a, b *Value) int {
	switch {
	case a.null && b.null:
		return 0
	case a.null:
		return -1
	case b.null:
		return 1
	}
	if a.typ.Numeric() && b.typ.Numeric() {
		switch {
		case a.typ == Integer && b.typ == Integer:
			return cmp.Compare(a.Int(), b.Int())
		case a.typ == Integer:
			return -compareFloatInt(b.Float(), a.Int())
		case b.typ == Integer:
			return compareFloatInt(a.Float(), b.Int())
		}
		return cmp.Compare(a.Float(), b.Float())
	}
	if a.typ == Version || b.typ == Version {
		return CompareVersions(asString(a), asString(b))
	}
	switch a.typ {
	case String:
		return strings.Compare(a.s, asString(b))
	case Timestamp:
		if b.typ == Timestamp {
			return cmp.Compare(a.Int(), b.Int())
		}
	case Boolean:
		if b.typ == Boolean {
			return cmp.Compare(a.num, b.num)
		}
	}
	// Fall back to comparing display forms for mixed types.
	return strings.Compare(a.String(), b.String())
}

// compareFloatInt is cmp.Compare(f, float64(i)) without rounding i: the
// integral parts compare as integers and the fraction breaks a tie.
func compareFloatInt(f float64, i int64) int {
	switch {
	case f != f || f < -0x1p63:
		return -1
	case f >= 0x1p63:
		return 1
	}
	t := math.Trunc(f)
	if c := cmp.Compare(int64(t), i); c != 0 {
		return c
	}
	return cmp.Compare(f, t)
}

func asString(v *Value) string {
	if v.typ == String || v.typ == Version {
		return v.s
	}
	return v.String()
}

// Equal reports whether a and b compare equal.
func Equal(a, b Value) bool { return Compare(a, b) == 0 }

// CompareVersions compares two dotted revision strings component-wise.
// Numeric components compare numerically, others lexicographically;
// a shorter version that is a prefix of a longer one sorts first
// ("2.6" < "2.6.1").
func CompareVersions(a, b string) int {
	as := splitVersion(a)
	bs := splitVersion(b)
	n := len(as)
	if len(bs) < n {
		n = len(bs)
	}
	for i := 0; i < n; i++ {
		ai, aerr := strconv.ParseInt(as[i], 10, 64)
		bi, berr := strconv.ParseInt(bs[i], 10, 64)
		if aerr == nil && berr == nil {
			switch {
			case ai < bi:
				return -1
			case ai > bi:
				return 1
			}
			continue
		}
		if c := strings.Compare(as[i], bs[i]); c != 0 {
			return c
		}
	}
	switch {
	case len(as) < len(bs):
		return -1
	case len(as) > len(bs):
		return 1
	}
	return 0
}

func splitVersion(s string) []string {
	return strings.FieldsFunc(s, func(r rune) bool {
		return r == '.' || r == '-' || r == '_'
	})
}

// arithmeticType picks the result type of a binary arithmetic
// operation: Integer only when both operands are Integer.
func arithmeticType(a, b Value) (Type, error) {
	if !a.typ.Numeric() || !b.typ.Numeric() {
		return 0, fmt.Errorf("value: arithmetic on non-numeric types %s and %s", a.typ, b.typ)
	}
	if a.typ == Integer && b.typ == Integer {
		return Integer, nil
	}
	return Float, nil
}

// Add returns a+b. String operands concatenate; numeric operands add.
// A NULL operand yields NULL of the result type.
func Add(a, b Value) (Value, error) {
	if a.typ == String && b.typ == String {
		if a.null || b.null {
			return Null(String), nil
		}
		return NewString(a.s + b.s), nil
	}
	t, err := arithmeticType(a, b)
	if err != nil {
		return Value{}, err
	}
	if a.null || b.null {
		return Null(t), nil
	}
	if t == Integer {
		return NewInt(a.Int() + b.Int()), nil
	}
	return NewFloat(a.Float() + b.Float()), nil
}

// Sub returns a-b.
func Sub(a, b Value) (Value, error) {
	t, err := arithmeticType(a, b)
	if err != nil {
		return Value{}, err
	}
	if a.null || b.null {
		return Null(t), nil
	}
	if t == Integer {
		return NewInt(a.Int() - b.Int()), nil
	}
	return NewFloat(a.Float() - b.Float()), nil
}

// Mul returns a*b.
func Mul(a, b Value) (Value, error) {
	t, err := arithmeticType(a, b)
	if err != nil {
		return Value{}, err
	}
	if a.null || b.null {
		return Null(t), nil
	}
	if t == Integer {
		return NewInt(a.Int() * b.Int()), nil
	}
	return NewFloat(a.Float() * b.Float()), nil
}

// Div returns a/b. Integer division of integers; division by zero is
// an error (NULL operands propagate before the zero check).
func Div(a, b Value) (Value, error) {
	t, err := arithmeticType(a, b)
	if err != nil {
		return Value{}, err
	}
	if a.null || b.null {
		return Null(t), nil
	}
	if t == Integer {
		if b.Int() == 0 {
			return Value{}, fmt.Errorf("value: integer division by zero")
		}
		return NewInt(a.Int() / b.Int()), nil
	}
	if b.Float() == 0 {
		return Value{}, fmt.Errorf("value: division by zero")
	}
	return NewFloat(a.Float() / b.Float()), nil
}

// Mod returns a%b for numeric operands (math.Mod for floats).
func Mod(a, b Value) (Value, error) {
	t, err := arithmeticType(a, b)
	if err != nil {
		return Value{}, err
	}
	if a.null || b.null {
		return Null(t), nil
	}
	if t == Integer {
		if b.Int() == 0 {
			return Value{}, fmt.Errorf("value: integer modulo by zero")
		}
		return NewInt(a.Int() % b.Int()), nil
	}
	return NewFloat(math.Mod(a.Float(), b.Float())), nil
}

// Neg returns -a for numeric a.
func Neg(a Value) (Value, error) {
	if !a.typ.Numeric() {
		return Value{}, fmt.Errorf("value: negation of non-numeric type %s", a.typ)
	}
	if a.null {
		return a, nil
	}
	if a.typ == Integer {
		return NewInt(-a.Int()), nil
	}
	return NewFloat(-a.Float()), nil
}

// Pow returns a raised to the power b as a Float.
func Pow(a, b Value) (Value, error) {
	if _, err := arithmeticType(a, b); err != nil {
		return Value{}, err
	}
	if a.null || b.null {
		return Null(Float), nil
	}
	return NewFloat(math.Pow(a.Float(), b.Float())), nil
}
