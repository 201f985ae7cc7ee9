package value_test

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"

	"perfbase/internal/sqldb"
	"perfbase/internal/value"
)

// TestSQLLiteralRoundTrip is the round-trip property of SQL: the engine
// reads every value's literal back as an equal value of the value's type
// — through the INSERT ... VALUES a write-ahead log replays, and as the
// constant a SELECT projects. NULL of every type, NaN, ±Inf, the most
// negative integer and embedded quotes are among the samples.
func TestSQLLiteralRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	alphabet := []rune("ab'\"\\ \n\t%_;,()éß∑\x01")
	text := func() string {
		var sb strings.Builder
		for n := rng.Intn(12); n > 0; n-- {
			sb.WriteRune(alphabet[rng.Intn(len(alphabet))])
		}
		return sb.String()
	}
	zone := time.FixedZone("", 5*3600+1800)
	samples := map[value.Type][]value.Value{
		value.Integer: {value.NewInt(0), value.NewInt(-1), value.NewInt(math.MaxInt64), value.NewInt(math.MinInt64), value.NewInt(math.MinInt64 + 1)},
		value.Float: {value.NewFloat(0), value.NewFloat(math.Copysign(0, -1)), value.NewFloat(2), value.NewFloat(-2.5),
			value.NewFloat(1e300), value.NewFloat(5e-324), value.NewFloat(math.MaxFloat64), value.NewFloat(123456789),
			value.NewFloat(math.NaN()), value.NewFloat(math.Inf(1)), value.NewFloat(math.Inf(-1))},
		value.String:    {value.NewString(""), value.NewString("it's"), value.NewString("''"), value.NewString("NaN"), value.NewString("NULL")},
		value.Timestamp: {value.NewTimestamp(time.Date(2005, 9, 27, 10, 30, 0, 0, time.UTC)), value.NewTimestamp(time.Date(1969, 12, 31, 23, 59, 59, 999999999, zone))},
		value.Boolean:   {value.NewBool(true), value.NewBool(false)},
		value.Version:   {value.NewVersion("2.6.10"), value.NewVersion("1.0'beta"), value.NewVersion("")},
	}
	for i := 0; i < 200; i++ {
		samples[value.Integer] = append(samples[value.Integer], value.NewInt(int64(rng.Uint64())))
		samples[value.Float] = append(samples[value.Float], value.NewFloat(math.Float64frombits(rng.Uint64())), value.NewFloat(rng.NormFloat64()*1e6))
		samples[value.String] = append(samples[value.String], value.NewString(text()))
		samples[value.Version] = append(samples[value.Version], value.NewVersion(text()))
		samples[value.Timestamp] = append(samples[value.Timestamp], value.NewTimestamp(time.Unix(rng.Int63n(1<<33)-1<<32, rng.Int63n(1e9)).In(zone)))
	}
	same := func(got, want value.Value) bool {
		if got.IsNull() || want.IsNull() {
			return got.IsNull() == want.IsNull()
		}
		if want.Type() == value.Float && math.IsNaN(want.Float()) != math.IsNaN(got.Float()) {
			return false
		}
		return got.Type() == want.Type() && value.Equal(got, want)
	}

	db := sqldb.NewMemory()
	for typ, vals := range samples {
		vals = append(vals, value.Null(typ))
		table := "t_" + typ.String()
		if _, err := db.Exec("CREATE TABLE " + table + " (x " + typ.String() + ")"); err != nil {
			t.Fatal(err)
		}
		for _, v := range vals {
			if _, err := db.Exec("INSERT INTO " + table + " (x) VALUES (" + v.SQL() + ")"); err != nil {
				t.Fatalf("%s %v: %v", typ, v, err)
			}
			res, err := db.Exec("SELECT " + v.SQL())
			if err != nil {
				t.Fatalf("%s %v: SELECT %s: %v", typ, v, v.SQL(), err)
			}
			got, err := res.Rows[0][0].Convert(typ)
			if err != nil || !same(got, v) {
				t.Errorf("%s %q: SELECT %s gives %q (%v)", typ, v, v.SQL(), got, err)
			}
		}
		res, err := db.Exec("SELECT x FROM " + table)
		if err != nil {
			t.Fatal(err)
		}
		for i, row := range res.Rows {
			if !same(row[0], vals[i]) {
				t.Errorf("%s %q: INSERT ... VALUES (%s) reads back %q", typ, vals[i], vals[i].SQL(), row[0])
			}
		}
	}
}
