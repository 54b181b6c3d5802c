package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"strconv"
)

// Request decoding for POST /v1/score.
//
// The body is read once into one buffer, then scanned in a single pass
// by scanScoreRequest, which understands only the form clients actually
// send: an object whose keys are exactly "model" and "samples" (each at
// most once, either order), the model an ASCII string without escapes,
// the samples an array of arrays of JSON numbers, and nothing but
// whitespace after the closing brace. Every number token goes to
// strconv.ParseFloat(tok, 64) — the call encoding/json makes for a
// float64 — so the scanned values are bit-identical to the decoder's.
//
// The scanner never reports an error. Any input it does not accept —
// escapes, non-ASCII, case-folded, duplicate or unknown keys, null,
// numbers ParseFloat rejects, trailing data, syntax errors, a body
// over the size limit — is replayed into decodeJSON, the encoding/json
// Decode + Token sequence the handler has always used, which stays the
// only decoder for those inputs and decides their status and message.

// decodeScoreRequest reads a score request body from r and decodes it.
// sizeHint is the request's Content-Length (negative if unknown) and
// limit the body cap r already enforces; a hint within the cap
// pre-sizes the read buffer. The error text is the client-facing
// message of a 400.
func decodeScoreRequest(r io.Reader, sizeHint, limit int64) (scoreRequest, error) {
	body, err := readBody(r, sizeHint, limit)
	if err == nil {
		if req, ok := scanScoreRequest(body); ok {
			return req, nil
		}
		return decodeJSON(bytes.NewReader(body))
	}
	// The replay hands encoding/json the bytes read so far and then the
	// read error, exactly the stream it would have seen reading r itself.
	return decodeJSON(io.MultiReader(bytes.NewReader(body), errReader{err}))
}

// decodeJSON is the encoding/json decoder for every body the scanner
// does not accept.
func decodeJSON(r io.Reader) (scoreRequest, error) {
	var req scoreRequest
	dec := json.NewDecoder(r)
	if err := dec.Decode(&req); err != nil {
		return req, fmt.Errorf("decoding request: %v", err)
	}
	// The same strictness ReadJSON applies to artifacts: a request with
	// trailing bytes after the document is malformed, not sloppy.
	if tok, err := dec.Token(); err != io.EOF {
		return req, fmt.Errorf("trailing data after request body (token %v)", tok)
	}
	return req, nil
}

// errReader fails every read with err.
type errReader struct{ err error }

func (e errReader) Read([]byte) (int, error) { return 0, e.err }

// maxBodyPresize caps the buffer reserved from a Content-Length before
// any of the body has arrived; a larger body grows as it is read.
const maxBodyPresize = 1 << 20

// readBody reads r to EOF. A sizeHint in (0, limit] sizes the buffer, up
// to maxBodyPresize, so that a body matching its Content-Length is read
// with one allocation; the MinRead spare lets the final read report EOF
// without growing it.
func readBody(r io.Reader, sizeHint, limit int64) ([]byte, error) {
	var size int64
	if sizeHint > 0 && sizeHint <= limit {
		size = min(sizeHint, maxBodyPresize)
	}
	buf := bytes.NewBuffer(make([]byte, 0, size+bytes.MinRead))
	_, err := buf.ReadFrom(r)
	return buf.Bytes(), err
}

// scanScoreRequest decodes body if it is in the scanner's grammar (see
// the top of this file) and reports whether it was. The rows are
// sub-slices of one contiguous slab.
func scanScoreRequest(body []byte) (req scoreRequest, ok bool) {
	s := scanner{b: body}
	if !s.eat('{') {
		return req, false
	}
	if !s.eat('}') {
		var sawModel, sawSamples bool
		for {
			key, ok := s.plainString()
			if !ok || !s.eat(':') {
				return req, false
			}
			switch string(key) {
			case "model":
				model, ok := s.plainString()
				if sawModel || !ok {
					return req, false
				}
				sawModel, req.Model = true, string(model)
			case "samples":
				if sawSamples {
					return req, false
				}
				sawSamples = true
				if req.Samples, ok = s.samples(); !ok {
					return req, false
				}
			default:
				return req, false
			}
			if s.eat(',') {
				continue
			}
			if !s.eat('}') {
				return req, false
			}
			break
		}
	}
	s.skipSpace()
	return req, s.i == len(s.b)
}

// scanner is a cursor over a buffered body.
type scanner struct {
	b []byte
	i int
}

func (s *scanner) skipSpace() {
	for s.i < len(s.b) {
		switch s.b[s.i] {
		case ' ', '\t', '\n', '\r':
			s.i++
		default:
			return
		}
	}
}

// eat consumes c after optional whitespace and reports whether it was
// there.
func (s *scanner) eat(c byte) bool {
	s.skipSpace()
	if s.i < len(s.b) && s.b[s.i] == c {
		s.i++
		return true
	}
	return false
}

// plainString consumes a string of printable ASCII with no escapes and
// returns its contents.
func (s *scanner) plainString() ([]byte, bool) {
	if !s.eat('"') {
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

// samples consumes an array of arrays of numbers. The values go into
// one slab that at least doubles when full, and each row's end offset is
// recorded; the rows are cut from the slab once the closing bracket is
// reached. Nothing is sized from bytes not yet scanned, so a body
// reserves memory only for the values it holds.
func (s *scanner) samples() ([][]float64, bool) {
	if !s.eat('[') {
		return nil, false
	}
	var slab []float64
	var ends []int
	if !s.eat(']') {
		for {
			if !s.eat('[') {
				return nil, false
			}
			if !s.eat(']') {
				for {
					v, ok := s.number()
					if !ok {
						return nil, false
					}
					if len(slab) == cap(slab) {
						slab = slices.Grow(slab, len(slab)+64)
					}
					slab = append(slab, v)
					if s.eat(',') {
						continue
					}
					if !s.eat(']') {
						return nil, false
					}
					break
				}
			}
			ends = append(ends, len(slab))
			if s.eat(',') {
				continue
			}
			if !s.eat(']') {
				return nil, false
			}
			break
		}
	}
	rows := make([][]float64, len(ends))
	start := 0
	for i, end := range ends {
		rows[i] = slab[start:end:end]
		start = end
	}
	return rows, true
}

// number consumes one token of the JSON number grammar,
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?, and parses it as
// encoding/json does. A token ParseFloat rejects (out of range) is not
// consumed.
func (s *scanner) number() (float64, bool) {
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
	if i < len(b) && b[i] == '.' {
		j := digits(b, i+1)
		if j == i+1 {
			return 0, false
		}
		i = j
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		j := digits(b, i)
		if j == i {
			return 0, false
		}
		i = j
	}
	v, err := strconv.ParseFloat(string(b[s.i:i]), 64)
	if err != nil {
		return 0, false
	}
	s.i = i
	return v, true
}

// digits returns the index of the first non-digit at or after i.
func digits(b []byte, i int) int {
	for i < len(b) && '0' <= b[i] && b[i] <= '9' {
		i++
	}
	return i
}
