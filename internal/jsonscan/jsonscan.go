// Package jsonscan is the single-pass JSON scanner shared by both ends
// of the daemon's score API: internal/serve decodes /v1/score request
// bodies with it and internal/client decodes the responses.
//
// A Scanner is a cursor over a body already read into memory. It
// understands only the narrow forms those bodies take — punctuation,
// strings of printable ASCII without escapes, JSON numbers — and every
// method reports whether the next token had that form. A caller that
// meets anything else hands the whole body to encoding/json, which
// stays the decoder of record for every input the scanner declines, so
// the scanner never has to reproduce encoding/json's error messages.
//
// Numbers are parsed in the same pass that checks their grammar; see
// ParseNumber for why the result is bit-identical to strconv.ParseFloat,
// the call encoding/json makes for a float64.
package jsonscan

import (
	"bytes"
	"io"
	"strconv"
	"unsafe"
)

// Scanner is a cursor over a buffered JSON body.
type Scanner struct {
	b []byte
	i int
}

// New returns a scanner at the start of b.
func New(b []byte) Scanner { return Scanner{b: b} }

// skipSpace consumes JSON whitespace.
func (s *Scanner) skipSpace() {
	for s.i < len(s.b) {
		switch s.b[s.i] {
		case ' ', '\t', '\n', '\r':
			s.i++
		default:
			return
		}
	}
}

// Eat consumes c after optional whitespace and reports whether it was
// there. The byte is tested before the whitespace loop is entered:
// bodies written by json.Marshal contain no whitespace at all.
func (s *Scanner) Eat(c byte) bool {
	if s.i < len(s.b) && s.b[s.i] == c {
		s.i++
		return true
	}
	s.skipSpace()
	if s.i < len(s.b) && s.b[s.i] == c {
		s.i++
		return true
	}
	return false
}

// End consumes trailing whitespace and reports whether the body is
// exhausted.
func (s *Scanner) End() bool {
	s.skipSpace()
	return s.i == len(s.b)
}

// PlainString consumes a string of printable ASCII with no escapes and
// returns its contents, a sub-slice of the body.
func (s *Scanner) PlainString() ([]byte, bool) {
	if !s.Eat('"') {
		return nil, false
	}
	for j := s.i; j < len(s.b); j++ {
		switch c := s.b[j]; {
		case c == '"':
			str := s.b[s.i:j]
			s.i = j + 1
			return str, true
		case c < 0x20 || c == '\\' || c >= 0x80:
			return nil, false
		}
	}
	return nil, false
}

// Object consumes an object whose keys are plain strings (see
// PlainString), calling field with each key once the scanner is at its
// value; field consumes the value and reports whether it was accepted.
// Object reports whether the whole object was consumed.
func (s *Scanner) Object(field func(key []byte) bool) bool {
	if !s.Eat('{') {
		return false
	}
	if s.Eat('}') {
		return true
	}
	for {
		key, ok := s.PlainString()
		if !ok || !s.Eat(':') || !field(key) {
			return false
		}
		if !s.Eat(',') {
			return s.Eat('}')
		}
	}
}

// Float consumes one JSON number and returns its value as
// strconv.ParseFloat(tok, 64) would. A token ParseFloat rejects (out of
// range) is not consumed.
func (s *Scanner) Float() (float64, bool) {
	if s.i < len(s.b) && s.b[s.i] <= ' ' {
		s.skipSpace()
	}
	v, n, ok := ParseNumber(s.b[s.i:])
	if ok {
		s.i += n
	}
	return v, ok
}

// Floats consumes an array of numbers, appending their values (see
// Float) to dst, and returns the extended slice.
func (s *Scanner) Floats(dst []float64) ([]float64, bool) {
	if !s.Eat('[') {
		return dst, false
	}
	if s.Eat(']') {
		return dst, true
	}
	for {
		v, ok := s.Float()
		if !ok {
			return dst, false
		}
		dst = append(dst, v)
		if !s.Eat(',') {
			return dst, s.Eat(']')
		}
	}
}

// Int consumes one JSON number written as an integer (no fraction, no
// exponent) and returns it as strconv.ParseInt(tok, 10, 64) would for
// an int. Any other number, or one that overflows an int, is not
// consumed.
func (s *Scanner) Int() (int, bool) {
	s.skipSpace()
	b, i := s.b, s.i
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		i = digits(b, i+1)
	default:
		return 0, false
	}
	if i < len(b) && (b[i] == '.' || b[i] == 'e' || b[i] == 'E') {
		return 0, false
	}
	v, err := strconv.Atoi(unsafe.String(&b[s.i], i-s.i))
	if err != nil {
		return 0, false
	}
	s.i = i
	return v, true
}

// pow10 holds the powers of ten that float64 represents exactly.
var pow10 = [...]float64{
	1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10,
	1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22,
}

// maxMantDigits is how many decimal digits a uint64 always holds.
const maxMantDigits = 19

// ParseNumber parses the JSON number token at the start of b,
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?, and returns its value
// and length. ok is false if b does not start with such a token or if
// strconv.ParseFloat rejects it (out of range).
//
// The grammar check accumulates the token's digits into a decimal
// mantissa m as it goes, and the fraction's length and the exponent
// into a decimal exponent e. When there are at most 19 digits (so m did
// not overflow), m ≤ 2^53 and |e| ≤ 22, the value is float64(m) times
// or divided by 10^|e|. Both operands are exact in float64 and IEEE 754
// rounds the one operation correctly, so the result is the correctly
// rounded value of the token, which is what ParseFloat returns
// (Clinger's fast path; strconv's atof64exact takes the same one).
// Every other token is handed to ParseFloat itself, on the body's bytes
// without a copy.
func ParseNumber(b []byte) (v float64, n int, ok bool) {
	i := 0
	neg := len(b) > 0 && b[0] == '-'
	if neg {
		i++
	}
	var m uint64
	start := i
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		for ; i < len(b) && b[i]-'0' <= 9; i++ {
			m = m*10 + uint64(b[i]-'0')
		}
	default:
		return 0, 0, false
	}
	nd, exp := i-start, 0
	if i < len(b) && b[i] == '.' {
		i++
		frac := i
		for ; i < len(b) && b[i]-'0' <= 9; i++ {
			m = m*10 + uint64(b[i]-'0')
		}
		if i == frac {
			return 0, 0, false
		}
		nd, exp = nd+i-frac, frac-i
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		eneg := false
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			eneg = b[i] == '-'
			i++
		}
		j, e := i, 0
		for ; i < len(b) && b[i]-'0' <= 9; i++ {
			if e < 10000 {
				e = e*10 + int(b[i]-'0')
			}
		}
		if i == j {
			return 0, 0, false
		}
		if eneg {
			e = -e
		}
		exp += e
	}
	if nd <= maxMantDigits && m <= 1<<53 && -22 <= exp && exp <= 22 {
		f := float64(m)
		if exp >= 0 {
			f *= pow10[exp]
		} else {
			f /= pow10[-exp]
		}
		if neg {
			f = -f
		}
		return f, i, true
	}
	f, err := strconv.ParseFloat(unsafe.String(&b[0], i), 64)
	if err != nil {
		return 0, 0, false
	}
	return f, i, true
}

// digits returns the index of the first non-digit at or after i.
func digits(b []byte, i int) int {
	for i < len(b) && '0' <= b[i] && b[i] <= '9' {
		i++
	}
	return i
}

// maxBodyPresize caps the buffer reserved from a Content-Length before
// any of the body has arrived; a larger body grows as it is read.
const maxBodyPresize = 1 << 20

// ReadBody reads r to EOF. A sizeHint in (0, limit] sizes the buffer, up
// to 1 MiB, so that a body matching its Content-Length is read with one
// allocation; the MinRead spare lets the final read report EOF without
// growing it. On a read error it returns the bytes read so far with the
// error; Replay turns the pair back into a stream.
func ReadBody(r io.Reader, sizeHint, limit int64) ([]byte, error) {
	var size int64
	if sizeHint > 0 && sizeHint <= limit {
		size = min(sizeHint, maxBodyPresize)
	}
	buf := bytes.NewBuffer(make([]byte, 0, size+bytes.MinRead))
	_, err := buf.ReadFrom(r)
	return buf.Bytes(), err
}

// Replay returns a reader that yields body and then fails with err
// (io.EOF if err is nil): exactly the stream a decoder reading the
// original source would have seen.
func Replay(body []byte, err error) io.Reader {
	if err == nil {
		return bytes.NewReader(body)
	}
	return io.MultiReader(bytes.NewReader(body), errReader{err})
}

// errReader fails every read with err.
type errReader struct{ err error }

func (e errReader) Read([]byte) (int, error) { return 0, e.err }
