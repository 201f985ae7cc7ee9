package value

import (
	"encoding/binary"
	"math"
	"strconv"
	"strings"
)

// The key encoding: the bytes by which a hash table matches values.
// Two values of one key class — the numbers, or one other type — have
// equal keys exactly when Compare calls them equal, and a key part is
// self-delimiting, so concatenated parts are a composite key with the
// same property. Each part starts with a class tag: NULL is a tag of
// its own; a number is canonical under Compare (an integral Float in
// int64 range is the Integer, −0 is 0, every NaN is one); a string is
// length-prefixed; a version is its components; a timestamp is its
// Unix nanoseconds. Values of different classes never share a key,
// even where Compare's display-form fallback calls them equal (String
// against Integer or Version). Keys live in memory only: no stored or
// wire format carries one.

const (
	keyNull byte = iota
	keyInt
	keyFloat
	keyNaN
	keyString
	keyBool
	keyTime
	keyVersion
)

// AppendKey appends v's key part to dst.
func AppendKey(dst []byte, v Value) []byte {
	if v.null {
		return AppendNullKey(dst)
	}
	switch v.typ {
	case Integer:
		return AppendIntKey(dst, v.Int())
	case Float:
		return AppendFloatKey(dst, v.Float())
	case Boolean:
		return AppendBoolKey(dst, v.Bool())
	case Version:
		return AppendVersionKey(dst, v.s)
	case Timestamp:
		return AppendTimestampKey(dst, v.Int())
	}
	return AppendStringKey(dst, v.s)
}

// AppendNullKey appends the key part of a NULL of any type.
func AppendNullKey(dst []byte) []byte { return append(dst, keyNull) }

// AppendIntKey appends the key part of the Integer x.
func AppendIntKey(dst []byte, x int64) []byte {
	return binary.BigEndian.AppendUint64(append(dst, keyInt), uint64(x))
}

// AppendFloatKey appends the key part of the Float x.
func AppendFloatKey(dst []byte, x float64) []byte {
	switch {
	case x != x:
		return append(dst, keyNaN)
	case x >= -0x1p63 && x < 0x1p63 && x == math.Trunc(x):
		return AppendIntKey(dst, int64(x))
	}
	return binary.BigEndian.AppendUint64(append(dst, keyFloat), math.Float64bits(x))
}

// AppendTimestampKey appends the key part of the Timestamp n
// nanoseconds after the Unix epoch.
func AppendTimestampKey(dst []byte, n int64) []byte {
	return binary.BigEndian.AppendUint64(append(dst, keyTime), uint64(n))
}

// AppendBoolKey appends the key part of the Boolean x.
func AppendBoolKey(dst []byte, x bool) []byte {
	if x {
		return append(dst, keyBool, 1)
	}
	return append(dst, keyBool, 0)
}

// AppendStringKey appends the key part of the String x.
func AppendStringKey(dst []byte, x string) []byte {
	return append(binary.AppendUvarint(append(dst, keyString), uint64(len(x))), x...)
}

// AppendVersionKey appends the key part of the Version x: its
// components as CompareVersions reads them — a numeric one as its
// integer, any other as its string — and an end mark.
func AppendVersionKey(dst []byte, x string) []byte {
	dst = append(dst, keyVersion)
	for x != "" {
		part := x
		if i := strings.IndexAny(x, ".-_"); i >= 0 {
			part, x = x[:i], x[i+1:]
		} else {
			x = ""
		}
		if n, err := strconv.ParseInt(part, 10, 64); err == nil {
			dst = AppendIntKey(dst, n)
		} else if part != "" {
			dst = AppendStringKey(dst, part)
		}
	}
	return append(dst, keyNull)
}

// FloatBits returns the bits of x canonical under Compare — −0 as 0,
// every NaN as one — so that two Floats have equal FloatBits exactly
// when Compare calls them equal: the key of a hash table over Floats
// alone.
func FloatBits(x float64) uint64 {
	switch {
	case x == 0:
		return 0
	case x != x:
		return math.Float64bits(math.NaN())
	}
	return math.Float64bits(x)
}
