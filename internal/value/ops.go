package value

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Compare orders a and b. It returns a negative number when a < b,
// zero when equal, positive when a > b. NULL sorts before every
// non-NULL value; two NULLs compare equal. Numeric types compare by
// magnitude across Integer and Float; a Float NaN is neither less nor
// greater than any number. When either operand is a Version, both
// compare component-wise as versions, the other by its display form.
// Compare is antisymmetric: Compare(a, b) == -Compare(b, a).
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
		if a.typ == Integer && b.typ == Integer {
			switch {
			case a.Int() < b.Int():
				return -1
			case a.Int() > b.Int():
				return 1
			}
			return 0
		}
		af, bf := a.Float(), b.Float()
		switch {
		case af < bf:
			return -1
		case af > bf:
			return 1
		}
		return 0
	}
	if a.typ == Version || b.typ == Version {
		return CompareVersions(asString(a), asString(b))
	}
	switch a.typ {
	case String:
		return strings.Compare(a.s, asString(b))
	case Timestamp:
		if b.typ == Timestamp {
			switch {
			case a.Time().Before(b.Time()):
				return -1
			case a.Time().After(b.Time()):
				return 1
			}
			return 0
		}
	case Boolean:
		if b.typ == Boolean {
			switch {
			case !a.Bool() && b.Bool():
				return -1
			case a.Bool() && !b.Bool():
				return 1
			}
			return 0
		}
	}
	// Fall back to comparing display forms for mixed types.
	return strings.Compare(a.String(), b.String())
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
