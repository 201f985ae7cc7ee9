package value

import (
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"
	"unicode"
)

// timestampLayouts are the layouts tried, in order, when parsing a
// Timestamp. The list covers RFC 3339, SQL style, and the classic Unix
// date formats that benchmark tools such as b_eff_io emit.
var timestampLayouts = []string{
	time.RFC3339Nano,
	time.RFC3339,
	"2006-01-02 15:04:05",
	"2006-01-02 15:04",
	"2006-01-02",
	time.ANSIC,                    // "Mon Jan  2 15:04:05 2006"
	time.UnixDate,                 // "Mon Jan  2 15:04:05 MST 2006"
	"Mon Jan 2 15:04:05 MST 2006", // UnixDate w/o padding
	"Mon Jan 2 15:04:05 2006",     // ANSIC w/o padding
	"Jan 2 15:04:05 2006",
	"02.01.2006 15:04:05",
	"01/02/2006 15:04:05",
}

// layoutsByFields holds timestampLayouts by their number of white-space
// separated fields, each list in timestampLayouts order. A layout only
// matches text with as many fields as it has: time.Parse matches a run
// of spaces in the layout to a run of spaces in the text, and no layout
// element takes white space.
var layoutsByFields = func() [][]string {
	var by [][]string
	for _, l := range timestampLayouts {
		n := fieldCount(l)
		for len(by) <= n {
			by = append(by, nil)
		}
		by[n] = append(by[n], l)
	}
	return by
}()

// fieldCount returns the number of fields strings.Fields would split s
// into, without allocating.
func fieldCount(s string) int {
	n, in := 0, false
	for _, r := range s {
		if unicode.IsSpace(r) {
			in = false
		} else if !in {
			in, n = true, n+1
		}
	}
	return n
}

// errNotTimestamp is parseTimestamp's answer for text no layout matches;
// being a value, it costs a failed attempt no allocation.
var errNotTimestamp = errors.New("value: not a timestamp")

// parseTimestamp parses s, which has n fields, as a Timestamp: by the
// layouts of n fields, in order, and, for one field, as Unix seconds.
// It returns errNotTimestamp when nothing matches, and a range error
// when the first layout that matches gives a time a Timestamp cannot
// hold.
func parseTimestamp(s string, n int) (Value, error) {
	if n < len(layoutsByFields) {
		for _, layout := range layoutsByFields[n] {
			if ts, err := time.Parse(layout, s); err == nil {
				if ts.Before(minTime) || ts.After(maxTime) {
					return Value{}, errTimeRange(strconv.Quote(s))
				}
				return NewTimestamp(ts), nil
			}
		}
	}
	// Numeric timestamps are interpreted as Unix seconds.
	if n == 1 {
		if secs, err := strconv.ParseInt(s, 10, 64); err == nil {
			return unixSeconds(secs)
		}
	}
	return Value{}, errNotTimestamp
}

// The range of a Timestamp: int64 nanoseconds since the Unix epoch.
var (
	minTime = time.Unix(0, math.MinInt64).UTC()
	maxTime = time.Unix(0, math.MaxInt64).UTC()
)

func errTimeRange(what string) error {
	return fmt.Errorf("value: timestamp %s is outside the range %s to %s", what,
		minTime.Format(time.RFC3339Nano), maxTime.Format(time.RFC3339Nano))
}

// unixSeconds returns the Timestamp secs seconds after the Unix epoch.
func unixSeconds(secs int64) (Value, error) {
	if secs < math.MinInt64/1_000_000_000 || secs > math.MaxInt64/1_000_000_000 {
		return Value{}, errTimeRange(strconv.FormatInt(secs, 10) + " (Unix seconds)")
	}
	return NewTimestampNano(secs * 1e9), nil
}

// Parse converts strict textual content to a value of type t.
// The input must contain nothing but the datum (surrounding white
// space is tolerated).
func Parse(t Type, s string) (Value, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return Null(t), nil
	}
	switch t {
	case Integer:
		i, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			// Accept float notation that denotes an integral value,
			// e.g. "1e3" or "4.0".
			f, ferr := strconv.ParseFloat(s, 64)
			if ferr != nil || f != float64(int64(f)) {
				return Value{}, fmt.Errorf("value: %q is not an integer", s)
			}
			return NewInt(int64(f)), nil
		}
		return NewInt(i), nil
	case Float:
		f, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return Value{}, fmt.Errorf("value: %q is not a float", s)
		}
		return NewFloat(f), nil
	case String:
		return NewString(s), nil
	case Version:
		return NewVersion(s), nil
	case Boolean:
		switch strings.ToLower(s) {
		case "true", "t", "yes", "y", "on", "1", "enabled":
			return NewBool(true), nil
		case "false", "f", "no", "n", "off", "0", "disabled":
			return NewBool(false), nil
		}
		return Value{}, fmt.Errorf("value: %q is not a boolean", s)
	case Timestamp:
		v, err := parseTimestamp(s, fieldCount(s))
		if err == errNotTimestamp {
			return Value{}, fmt.Errorf("value: %q is not a timestamp", s)
		}
		return v, err
	}
	return Value{}, fmt.Errorf("value: unknown type %v", t)
}

// SmartParse extracts a value of type t from free-form text, as found
// behind a keyword match in a benchmark output file. Unlike Parse it
// tolerates leading separators ("=", ":"), trailing units and trailing
// prose: for numeric types the first number-like token is used, for
// timestamps the longest parseable prefix, and for strings the first
// word (use Parse for whole-remainder strings).
func SmartParse(t Type, s string) (Value, error) {
	s = strings.TrimLeft(s, " \t=:")
	s = strings.TrimSpace(s)
	if s == "" {
		return Null(t), nil
	}
	switch t {
	case Integer, Float:
		tok := firstNumberToken(s)
		if tok == "" {
			return Value{}, fmt.Errorf("value: no number in %q", s)
		}
		return Parse(t, tok)
	case Boolean:
		return Parse(Boolean, firstWord(s))
	case Version:
		return NewVersion(firstWord(s)), nil
	case String:
		return NewString(firstWord(s)), nil
	case Timestamp:
		// Try progressively shorter prefixes (cut at word boundaries)
		// so that trailing prose after a date does not break parsing. A
		// prefix of more words than any layout has, or of a number no
		// layout has, cannot parse and is not tried.
		words := strings.Fields(s)
		for n := min(len(words), len(layoutsByFields)-1); n >= 1; n-- {
			if n > 1 && len(layoutsByFields[n]) == 0 {
				continue
			}
			if v, err := parseTimestamp(strings.Join(words[:n], " "), n); err == nil {
				return v, nil
			}
		}
		return Value{}, fmt.Errorf("value: no timestamp in %q", s)
	}
	return Value{}, fmt.Errorf("value: unknown type %v", t)
}

// firstWord returns the first white-space separated token of s,
// with trailing punctuation trimmed.
func firstWord(s string) string {
	fields := strings.Fields(s)
	if len(fields) == 0 {
		return ""
	}
	return strings.TrimRight(fields[0], ",;")
}

// firstNumberToken scans s for the first substring that looks like a
// decimal number (optional sign, digits, optional fraction and
// exponent) and returns it.
func firstNumberToken(s string) string {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if !unicode.IsDigit(rune(c)) && c != '-' && c != '+' && c != '.' {
			continue
		}
		j := i
		if c == '-' || c == '+' {
			j++
		}
		start := j
		for j < len(s) && unicode.IsDigit(rune(s[j])) {
			j++
		}
		intDigits := j - start
		fracDigits := 0
		if j < len(s) && s[j] == '.' {
			j++
			for j < len(s) && unicode.IsDigit(rune(s[j])) {
				j++
				fracDigits++
			}
		}
		if intDigits == 0 && fracDigits == 0 {
			// A bare sign or dot; keep scanning after it.
			i = j
			continue
		}
		// Optional exponent.
		if j < len(s) && (s[j] == 'e' || s[j] == 'E') {
			k := j + 1
			if k < len(s) && (s[k] == '-' || s[k] == '+') {
				k++
			}
			expStart := k
			for k < len(s) && unicode.IsDigit(rune(s[k])) {
				k++
			}
			if k > expStart {
				j = k
			}
		}
		return s[i:j]
	}
	return ""
}
