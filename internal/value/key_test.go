package value

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
	"time"
)

// keyDomain is the edge of every key class: NaN payloads, ±0, 2^53 ± 1
// as Integer against Float, ±Inf, versions spelt three ways, one
// instant in two zones, and strings holding the bytes a separator-
// joined display key used (\x1f, \x00, "\x00NULL").
func keyDomain() []Value {
	at := time.Date(2004, 11, 23, 18, 30, 30, 0, time.UTC)
	out := []Value{
		Null(Integer), Null(Float), Null(String), Null(Timestamp), Null(Boolean), Null(Version),
		NewBool(false), NewBool(true),
		NewTimestamp(at), NewTimestamp(at.In(time.FixedZone("CET", 3600))),
		NewTimestamp(at.Add(500 * time.Millisecond)), NewTimestamp(at.Add(time.Second)), NewTimestamp(time.Time{}),
	}
	for _, i := range []int64{0, 1, -1, 2, 1000000, 1<<53 - 1, 1 << 53, 1<<53 + 1, math.MaxInt64, math.MinInt64, math.MinInt64 + 1} {
		out = append(out, NewInt(i))
	}
	for _, f := range []float64{0, math.Copysign(0, -1), math.NaN(), math.Float64frombits(0x7ff0000000000001),
		math.Float64frombits(0xfff8000000000000), math.Inf(1), math.Inf(-1), 1, -1, 0.5, -2.5, 1e6, 1 << 53,
		1<<53 + 2, 0x1p63, -0x1p63, 1e300, math.SmallestNonzeroFloat64} {
		out = append(out, NewFloat(f))
	}
	for _, s := range []string{"", "a", "b", "a\x1f", "\x1fb", "\x00NULL", "NULL", "z", "1", "1.2", "NaN"} {
		out = append(out, NewString(s))
	}
	for _, s := range []string{"1.2", "1.02", "1-2", "1_2", "1.2.0", "1.10", "1.9", "2.6.10", "rc1", "1.2-rc1", "", "01"} {
		out = append(out, NewVersion(s))
	}
	return out
}

// keyClass is the class AppendKey encodes t in: the numbers share one.
func keyClass(t Type) Type {
	if t == Integer {
		return Float
	}
	return t
}

// checkKeyAgrees: within one key class, or against a NULL, a and b have
// equal keys exactly when Compare calls them equal; across classes
// never, whatever the display-form fallback says.
func checkKeyAgrees(t *testing.T, a, b Value) {
	t.Helper()
	same := bytes.Equal(AppendKey(nil, a), AppendKey(nil, b))
	if a.IsNull() || b.IsNull() || keyClass(a.Type()) == keyClass(b.Type()) {
		if eq := Compare(a, b) == 0; same != eq {
			t.Errorf("%s %q against %s %q: keys equal %v, Compare equal %v", a.Type(), a.SQL(), b.Type(), b.SQL(), same, eq)
		}
	} else if same {
		t.Errorf("%s %q and %s %q share a key across classes", a.Type(), a.SQL(), b.Type(), b.SQL())
	}
}

// TestKeyEqualsCompare: over the key domain and random numbers, key
// bytes are equal ⇔ Compare == 0, for single parts and for two-part
// composite keys; and within each key class Compare is transitive.
func TestKeyEqualsCompare(t *testing.T) {
	dom := keyDomain()
	for _, a := range dom {
		for _, b := range dom {
			checkKeyAgrees(t, a, b)
		}
	}
	// Composite keys: two pairs have equal keys exactly when both parts
	// compare equal — over the strings and NULL, where parts joined by a
	// separator byte used to run together.
	var strs []Value
	for _, v := range dom {
		if v.IsNull() || v.Type() == String {
			strs = append(strs, v)
		}
	}
	pair := func(x, y Value) []byte { return AppendKey(AppendKey(nil, x), y) }
	for _, a1 := range strs {
		for _, a2 := range strs {
			for _, b1 := range strs {
				for _, b2 := range strs {
					eq := Compare(a1, b1) == 0 && Compare(a2, b2) == 0
					if same := bytes.Equal(pair(a1, a2), pair(b1, b2)); same != eq {
						t.Errorf("(%s, %s) against (%s, %s): keys equal %v, parts equal %v", a1.SQL(), a2.SQL(), b1.SQL(), b2.SQL(), same, eq)
					}
				}
			}
		}
	}
	for _, a := range dom {
		for _, b := range dom {
			for _, c := range dom {
				if keyClass(a.Type()) != keyClass(b.Type()) || keyClass(b.Type()) != keyClass(c.Type()) {
					continue
				}
				if Compare(a, b) <= 0 && Compare(b, c) <= 0 && Compare(a, c) > 0 {
					t.Errorf("not transitive: %q <= %q <= %q but %[1]q > %[3]q", a.SQL(), b.SQL(), c.SQL())
				}
			}
		}
	}
	r := rand.New(rand.NewSource(1))
	for range 20000 {
		i := r.Int63() >> r.Intn(63)
		if r.Intn(2) == 0 {
			i = -i
		}
		f := float64(i) + float64(r.Intn(3)-1)*[]float64{0, 0.5, 1, 2, 1024}[r.Intn(5)]
		checkKeyAgrees(t, NewInt(i), NewFloat(f))
		checkKeyAgrees(t, NewFloat(f), NewFloat(float64(i)))
		checkKeyAgrees(t, NewInt(i), NewInt(int64(f)))
	}
}
