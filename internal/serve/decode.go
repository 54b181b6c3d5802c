package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"sync"

	"specchar/internal/jsonscan"
)

// Request decoding for POST /v1/score.
//
// The body is read once into one buffer, then scanned in a single pass
// by scanScoreRequest, which understands only the form clients actually
// send: an object whose keys are exactly "model" and "samples" (each at
// most once, either order), the model an ASCII string without escapes,
// the samples an array of arrays of JSON numbers, and nothing but
// whitespace after the closing brace. The scanner is internal/jsonscan,
// the one the client uses on responses; it parses each number in the
// pass that checks its grammar, bit-identical to the
// strconv.ParseFloat(tok, 64) call encoding/json makes for a float64
// (see jsonscan.ParseNumber for the argument).
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
	body, err := jsonscan.ReadBody(r, sizeHint, limit)
	if err == nil {
		if req, ok := scanScoreRequest(body); ok {
			return req, nil
		}
	}
	// The replay hands encoding/json the bytes read so far and then the
	// read error, exactly the stream it would have seen reading r itself.
	return decodeJSON(jsonscan.Replay(body, err))
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

// scanScoreRequest decodes body if it is in the scanner's grammar (see
// the top of this file) and reports whether it was. The rows are
// sub-slices of one contiguous slab.
func scanScoreRequest(body []byte) (req scoreRequest, ok bool) {
	s := jsonscan.New(body)
	var sawModel, sawSamples bool
	ok = s.Object(func(key []byte) bool {
		switch string(key) {
		case "model":
			model, ok := s.PlainString()
			if sawModel || !ok {
				return false
			}
			sawModel, req.Model = true, string(model)
			return true
		case "samples":
			if sawSamples {
				return false
			}
			sawSamples = true
			rows, ok := samples(&s)
			req.Samples = rows
			return ok
		}
		return false
	})
	return req, ok && s.End()
}

// scanScratch is where samples collects values and row ends before it
// knows how many there are. It is pooled: a request keeps only the
// exact-size copy, so its scratch is free again once the scan returns.
type scanScratch struct {
	vals []float64
	ends []int
}

var scratchPool = sync.Pool{New: func() any { return new(scanScratch) }}

// samples consumes an array of arrays of numbers. The values and each
// row's end offset go into pooled scratch; once the closing bracket is
// reached the values are copied into one slab of exactly their number,
// and the rows are cut from it. Nothing is sized from bytes not yet
// scanned, so a body reserves memory only for the values it holds.
func samples(s *jsonscan.Scanner) ([][]float64, bool) {
	if !s.Eat('[') {
		return nil, false
	}
	sc := scratchPool.Get().(*scanScratch)
	defer scratchPool.Put(sc)
	vals, ends := sc.vals[:0], sc.ends[:0]
	defer func() { sc.vals, sc.ends = vals[:0], ends[:0] }()
	if !s.Eat(']') {
		for {
			var ok bool
			if vals, ok = s.Floats(vals); !ok {
				return nil, false
			}
			ends = append(ends, len(vals))
			if s.Eat(',') {
				continue
			}
			if !s.Eat(']') {
				return nil, false
			}
			break
		}
	}
	slab := slices.Clone(vals)
	rows := make([][]float64, len(ends))
	start := 0
	for i, end := range ends {
		rows[i] = slab[start:end:end]
		start = end
	}
	return rows, true
}
