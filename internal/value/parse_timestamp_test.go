package value

import (
	"fmt"
	"strconv"
	"strings"
	"testing"
	"time"
)

// refParseTimestamp is Parse(Timestamp, s) as it was before layouts were
// chosen by field count: every layout in order, then Unix seconds.
func refParseTimestamp(s string) (Value, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return Null(Timestamp), nil
	}
	for _, layout := range timestampLayouts {
		if ts, err := time.Parse(layout, s); err == nil {
			if ts.Before(minTime) || ts.After(maxTime) {
				return Value{}, errTimeRange(strconv.Quote(s))
			}
			return NewTimestamp(ts), nil
		}
	}
	if secs, err := strconv.ParseInt(s, 10, 64); err == nil {
		return unixSeconds(secs)
	}
	return Value{}, fmt.Errorf("value: %q is not a timestamp", s)
}

// refSmartParseTimestamp is SmartParse(Timestamp, s) as it was before:
// every word-boundary prefix, longest first, joined and parsed.
func refSmartParseTimestamp(s string) (Value, error) {
	s = strings.TrimLeft(s, " \t=:")
	s = strings.TrimSpace(s)
	if s == "" {
		return Null(Timestamp), nil
	}
	words := strings.Fields(s)
	for n := len(words); n >= 1; n-- {
		if v, err := refParseTimestamp(strings.Join(words[:n], " ")); err == nil {
			return v, nil
		}
	}
	return Value{}, fmt.Errorf("value: no timestamp in %q", s)
}

// TestTimestampParseMatchesReference holds Parse and SmartParse of
// timestamps to what they gave when every layout was tried on every
// candidate: the same value, or the same error text.
func TestTimestampParseMatchesReference(t *testing.T) {
	ref := time.Date(2004, 11, 23, 19, 30, 30, 123456789, time.UTC)
	var cases []string
	for _, layout := range timestampLayouts {
		v := ref.Format(layout)
		cases = append(cases,
			v,
			"  "+v+"\t",
			strings.ReplaceAll(v, " ", "  "),       // double spaces
			strings.ReplaceAll(v, " ", "\t"),       // tabs, which no layout takes
			"= "+v+" MB/s measured on 4 nodes",     // trailing prose
			": "+v+" 42",                           // a trailing number
			v+"x",                                  // glued junk
			"at "+v,                                // leading prose
			strings.Replace(v, "2004", "99999", 1), // a year no layout takes
		)
	}
	cases = append(cases,
		// Single-digit days, padded and not.
		"Tue Nov  2 19:30:30 2004", "Tue Nov 2 19:30:30 2004",
		"Tue Nov  2 19:30:30 CET 2004", "Tue Nov 2 19:30:30 CET 2004 and then some",
		"Nov 2 19:30:30 2004 (local)",
		// Unix seconds, in range and out of it.
		"0", "1100000000", "-1100000000", "+1100000000", "1100000000 s",
		"9223372036", "-9223372036", "9223372037", "-9223372037",
		"99999999999999999999", "1e9", "12 34",
		// Out-of-range layouts.
		"2263-01-01", "1677-09-21 00:12:43", "1600-01-01T00:00:00Z", "2300-01-01 00:00:00 later",
		// Not timestamps.
		"", "   ", "=:", "abc", "now", "Tue", "Nov 23", "a b c d e f g h i j k", "2004-13-45",
		"2004-11-23 25:00:00", "Tue Nov 23 19:30:30", " 2004-11-23 ", "2004-11-23 19:30:30",
		"2004-11-23 19:30 19:30:30 2004",
	)
	for _, s := range cases {
		for _, f := range []struct {
			name     string
			got, ref func(string) (Value, error)
		}{
			{"Parse", func(s string) (Value, error) { return Parse(Timestamp, s) }, refParseTimestamp},
			{"SmartParse", func(s string) (Value, error) { return SmartParse(Timestamp, s) }, refSmartParseTimestamp},
		} {
			gv, gerr := f.got(s)
			rv, rerr := f.ref(s)
			if fmt.Sprint(gerr) != fmt.Sprint(rerr) {
				t.Errorf("%s(%q): error %v, reference %v", f.name, s, gerr, rerr)
				continue
			}
			if gv.IsNull() != rv.IsNull() || (!gv.IsNull() && gv.String() != rv.String()) || gv.Type() != rv.Type() {
				t.Errorf("%s(%q) = %v, reference %v", f.name, s, gv, rv)
			}
		}
	}
}

// TestFieldCountMatchesFields holds fieldCount to strings.Fields.
func TestFieldCountMatchesFields(t *testing.T) {
	for _, s := range []string{"", " ", "a", " a ", "a  b", "a\tb\nc", "a b", "a\u0085b c", "\xff \xfe", "Mon Jan _2 15:04:05 2006"} {
		if got, want := fieldCount(s), len(strings.Fields(s)); got != want {
			t.Errorf("fieldCount(%q) = %d, strings.Fields gives %d", s, got, want)
		}
	}
}
