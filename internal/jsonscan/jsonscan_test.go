package jsonscan

import (
	"encoding/json"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"
)

// isJSONNumber reports whether tok is exactly one JSON number, judged
// by encoding/json's own scanner.
func isJSONNumber(tok []byte) bool {
	if len(tok) == 0 || !(tok[0] == '-' || '0' <= tok[0] && tok[0] <= '9') {
		return false
	}
	last := tok[len(tok)-1]
	return '0' <= last && last <= '9' && json.Valid(tok)
}

// numberSeeds sit at the edges of the fast path: 19 and 20 significant
// digits, mantissas around 2^53, exponents around ±22, signed zeros,
// leading fraction zeros, and tokens ParseFloat or the grammar rejects.
var numberSeeds = []string{
	"0", "-0", "0.0", "-0.0", "0e0", "-0e-5", "1", "-1", "0.25", "-1.5e-3", "1E+2",
	"1234567890123456789", "12345678901234567890", "1234567890123456789.5",
	"0.1234567890123456789", "0.12345678901234567891", "123456789012345678900000",
	"9007199254740991", "9007199254740992", "9007199254740993",
	"-9007199254740993", "9007199254740992e22", "9007199254740993e-22",
	"1e22", "1e23", "1e-22", "1e-23", "4.5e22", "4.5e-23", "123e-20",
	"0.000001", "0.0000001", "0.00000000000000000000001", "0.0000000000000000000000000001",
	"1." + strings.Repeat("0", 40), "1" + strings.Repeat("0", 30), "1." + strings.Repeat("0", 30) + "1",
	"5e-324", "2.4703282292062327e-324", "1.7976931348623157e308", "1.7976931348623159e308",
	"1e999", "-1e999", "1e-999", "1e-400", "1e99999999999999999999",
	"0.30000000000000004", "3.0000000000000004e-1", "2.2250738585072011e-308",
	"01", "1.", ".5", "+1", "-", "--1", "1e", "1e+", "0x10", "NaN", "Infinity", "1_0",
	"1x", "1,", "1]", " 1", "",
}

// ParseNumber is an accelerator for strconv.ParseFloat on JSON number
// tokens: whatever prefix it consumes is a JSON number and parses to the
// same bits as ParseFloat, and it consumes a whole token exactly when
// the token is a JSON number that ParseFloat accepts.
func FuzzParseNumber(f *testing.F) {
	for _, s := range numberSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, tok []byte) {
		v, n, ok := ParseNumber(tok)
		if ok {
			p := tok[:n]
			want, err := strconv.ParseFloat(string(p), 64)
			if !isJSONNumber(p) || err != nil {
				t.Fatalf("%q: consumed %q, not a JSON number ParseFloat accepts (%v)", tok, p, err)
			}
			if math.Float64bits(v) != math.Float64bits(want) {
				t.Fatalf("%q: parsed %v (%#x), ParseFloat %v (%#x)", p, v, math.Float64bits(v), want, math.Float64bits(want))
			}
		}
		_, err := strconv.ParseFloat(string(tok), 64)
		if whole := isJSONNumber(tok) && err == nil; whole != (ok && n == len(tok)) {
			t.Fatalf("%q: consumed %d bytes (ok %v); JSON number accepted by ParseFloat: %v", tok, n, ok, whole)
		}
	})
}

// Random tokens around the fast path's limits (up to 20 significant
// digits, exponents in [-30, 30], with and without a fraction) parse to
// ParseFloat's bits. The fuzz target explores further; this keeps the
// bulk of the fast path under every plain test run.
func TestParseNumberMatchesParseFloat(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for n := 0; n < 200000; n++ {
		var tok []byte
		if rng.Intn(2) == 0 {
			tok = append(tok, '-')
		}
		nd := 1 + rng.Intn(20)
		digits := make([]byte, nd)
		for i := range digits {
			digits[i] = byte('0' + rng.Intn(10))
		}
		digits[0] = byte('1' + rng.Intn(9))
		if point := rng.Intn(nd + 3); point == 0 {
			tok = append(tok, "0."+strings.Repeat("0", rng.Intn(8))...)
			tok = append(tok, digits...)
		} else if point < nd {
			tok = append(append(append(tok, digits[:point]...), '.'), digits[point:]...)
		} else {
			tok = append(tok, digits...)
		}
		if rng.Intn(2) == 0 {
			tok = strconv.AppendInt(append(tok, 'e'), int64(rng.Intn(61)-30), 10)
		}
		v, used, ok := ParseNumber(tok)
		want, err := strconv.ParseFloat(string(tok), 64)
		if !ok || used != len(tok) || err != nil || math.Float64bits(v) != math.Float64bits(want) {
			t.Fatalf("%q: parsed %v (%d bytes, ok %v); ParseFloat %v (%v)", tok, v, used, ok, want, err)
		}
	}
}

// Int takes integers only, as encoding/json does for an int field, and
// leaves everything else unconsumed for the fallback decoder.
func TestInt(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want int
		ok   bool
	}{
		{"0", 0, true},
		{"-0", 0, true},
		{" 42,", 42, true},
		{strconv.Itoa(math.MinInt), math.MinInt, true},
		{"9223372036854775808", 0, false},
		{"1e2", 0, false},
		{"1.0", 0, false},
		{"01", 0, true}, // "0", leaving "1" for the caller to reject
		{"+1", 0, false},
		{"-", 0, false},
		{"", 0, false},
	} {
		s := New([]byte(tc.in))
		got, ok := s.Int()
		if ok != tc.ok || got != tc.want {
			t.Errorf("Int(%q) = %d, %v; want %d, %v", tc.in, got, ok, tc.want, tc.ok)
		}
		if !ok && s.i != 0 {
			t.Errorf("Int(%q) failed but consumed %d bytes", tc.in, s.i)
		}
	}
}
