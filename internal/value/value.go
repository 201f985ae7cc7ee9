// Package value implements the typed data model of perfbase.
//
// Every parameter and result value of an experiment has one of the
// perfbase data types (integer, float, string, timestamp, boolean or
// version). A Value carries one datum of such a type, or NULL. Values
// are the common currency between the input parser, the SQL engine and
// the query processor.
package value

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"
)

// Type enumerates the perfbase data types.
type Type uint8

const (
	// Integer is a signed 64-bit integer.
	Integer Type = iota
	// Float is a 64-bit IEEE-754 floating point number.
	Float
	// String is an arbitrary text string.
	String
	// Timestamp is an instant with nanosecond resolution, held in UTC:
	// like PostgreSQL's timestamptz, it keeps no zone of its own.
	Timestamp
	// Boolean is a truth value.
	Boolean
	// Version is a dotted revision string such as "2.6.10" which
	// compares component-wise numerically rather than lexicographically.
	Version
)

// typeNames maps type constants to their canonical names as used in
// experiment definitions.
var typeNames = map[Type]string{
	Integer:   "integer",
	Float:     "float",
	String:    "string",
	Timestamp: "timestamp",
	Boolean:   "boolean",
	Version:   "version",
}

// String returns the canonical lower-case name of the type.
func (t Type) String() string {
	if n, ok := typeNames[t]; ok {
		return n
	}
	return fmt.Sprintf("type(%d)", int(t))
}

// TypeFromString resolves a type name from an experiment definition.
// Recognised spellings include the canonical names plus common aliases
// ("int", "double", "text", "date", "bool").
func TypeFromString(s string) (Type, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "integer", "int", "int4", "int8":
		return Integer, nil
	case "float", "double", "real", "float4", "float8":
		return Float, nil
	case "string", "text", "varchar":
		return String, nil
	case "timestamp", "date", "datetime":
		return Timestamp, nil
	case "boolean", "bool":
		return Boolean, nil
	case "version", "revision":
		return Version, nil
	}
	return 0, fmt.Errorf("value: unknown data type %q", s)
}

// Numeric reports whether the type has a numeric interpretation.
func (t Type) Numeric() bool { return t == Integer || t == Float }

// Value is one datum of a perfbase data type, or NULL. The zero Value
// is a NULL integer.
//
// The layout is deliberately compact (32 bytes on 64-bit platforms):
// integers, floats, booleans and timestamps share one 64-bit word.
// Values are copied by the million in scan and expression hot loops,
// so struct size translates directly into runtime.duffcopy cost there.
type Value struct {
	typ  Type
	null bool

	num uint64 // Integer (two's complement), Float (IEEE bits), Boolean (0/1), Timestamp (Unix nanoseconds)
	s   string // String, Version
}

// Null returns the NULL value of the given type.
func Null(t Type) Value { return Value{typ: t, null: true} }

// NewInt returns an Integer value.
func NewInt(i int64) Value { return Value{typ: Integer, num: uint64(i)} }

// NewFloat returns a Float value.
func NewFloat(f float64) Value { return Value{typ: Float, num: math.Float64bits(f)} }

// NewString returns a String value.
func NewString(s string) Value { return Value{typ: String, s: s} }

// NewTimestamp returns the Timestamp of t's instant; t's zone is not
// kept. t must lie in the range of int64 nanoseconds since the Unix
// epoch (years 1678 to 2262), as Parse and Convert ensure.
func NewTimestamp(t time.Time) Value { return NewTimestampNano(t.UnixNano()) }

// NewTimestampNano returns the Timestamp n nanoseconds after the Unix
// epoch.
func NewTimestampNano(n int64) Value { return Value{typ: Timestamp, num: uint64(n)} }

// NewBool returns a Boolean value.
func NewBool(b bool) Value {
	v := Value{typ: Boolean}
	if b {
		v.num = 1
	}
	return v
}

// NewVersion returns a Version value. The string is not validated;
// non-numeric components compare lexicographically.
func NewVersion(s string) Value { return Value{typ: Version, s: s} }

// Type returns the data type of the value.
func (v Value) Type() Type { return v.typ }

// IsNull reports whether the value is NULL.
func (v Value) IsNull() bool { return v.null }

// Int returns the integer datum: an Integer's value, a Timestamp's Unix
// nanoseconds. It is only meaningful for these types.
func (v Value) Int() int64 { return int64(v.num) }

// Float returns the float datum. For Integer values the converted
// integer is returned so numeric code can treat both uniformly.
func (v Value) Float() float64 {
	if v.typ == Integer {
		return float64(int64(v.num))
	}
	return math.Float64frombits(v.num)
}

// Str returns the string datum of a String or Version value.
func (v Value) Str() string { return v.s }

// Time returns the timestamp datum, in UTC.
func (v Value) Time() time.Time { return time.Unix(0, int64(v.num)).UTC() }

// Bool returns the boolean datum.
func (v Value) Bool() bool { return v.num != 0 }

// String formats the value for display. NULL renders as "NULL";
// timestamps render in RFC 3339 form, with as many fractional digits
// as they need.
func (v Value) String() string {
	if v.null {
		return "NULL"
	}
	switch v.typ {
	case Integer:
		return strconv.FormatInt(v.Int(), 10)
	case Float:
		return strconv.FormatFloat(v.Float(), 'g', -1, 64)
	case String, Version:
		return v.s
	case Timestamp:
		return v.Time().Format(time.RFC3339Nano)
	case Boolean:
		return strconv.FormatBool(v.Bool())
	}
	return "?"
}

// SQL formats the value as an SQL literal suitable for embedding in a
// statement for the embedded database engine: the engine reads it back
// as an equal value. A datum with no literal of its own — NaN, ±Inf, the
// one integer whose magnitude overflows — is a CAST of its text.
func (v Value) SQL() string {
	if v.null {
		return "NULL"
	}
	switch v.typ {
	case Integer:
		if v.Int() == math.MinInt64 {
			return "CAST('" + strconv.FormatInt(v.Int(), 10) + "' AS INTEGER)"
		}
		return strconv.FormatInt(v.Int(), 10)
	case Float:
		if f := v.Float(); math.IsNaN(f) || math.IsInf(f, 0) {
			return "CAST('" + strconv.FormatFloat(f, 'g', -1, 64) + "' AS FLOAT)"
		}
		return strconv.FormatFloat(v.Float(), 'g', -1, 64)
	case String, Version:
		return QuoteSQL(v.s)
	case Timestamp:
		return QuoteSQL(v.String())
	case Boolean:
		if v.Bool() {
			return "TRUE"
		}
		return "FALSE"
	}
	return "NULL"
}

// QuoteSQL quotes s as a single-quoted SQL string literal, doubling
// embedded quotes.
func QuoteSQL(s string) string {
	return "'" + strings.ReplaceAll(s, "'", "''") + "'"
}

// Convert coerces the value to type t. Numeric conversions truncate
// toward zero; any value converts to String via its display form;
// strings convert via Parse. NULL converts to NULL of the target type.
func (v Value) Convert(t Type) (Value, error) {
	if v.null {
		return Null(t), nil
	}
	if v.typ == t {
		return v, nil
	}
	switch t {
	case Integer:
		switch v.typ {
		case Float:
			return NewInt(int64(v.Float())), nil
		case Boolean:
			if v.Bool() {
				return NewInt(1), nil
			}
			return NewInt(0), nil
		case String:
			return Parse(Integer, v.s)
		case Timestamp:
			return NewInt(v.Time().Unix()), nil
		}
	case Float:
		switch v.typ {
		case Integer:
			return NewFloat(float64(v.Int())), nil
		case String:
			return Parse(Float, v.s)
		case Timestamp:
			return NewFloat(float64(v.Int()) / 1e9), nil
		}
	case String:
		return NewString(v.String()), nil
	case Version:
		if v.typ == String {
			return NewVersion(v.s), nil
		}
		return NewVersion(v.String()), nil
	case Timestamp:
		if v.typ == String {
			return Parse(Timestamp, v.s)
		}
		if v.typ == Integer {
			return unixSeconds(v.Int())
		}
	case Boolean:
		switch v.typ {
		case Integer:
			return NewBool(v.Int() != 0), nil
		case String:
			return Parse(Boolean, v.s)
		}
	}
	return Value{}, fmt.Errorf("value: cannot convert %s to %s", v.typ, t)
}
