package serve

import (
	"encoding/json"
	"math"
	"strconv"

	"specchar/internal/client"
)

// Response encoding for POST /v1/score.
//
// A 200 body is appended into one buffer field by field instead of going
// through json.Marshal's reflection. The bytes are exactly
// json.Marshal(res) plus the newline writeJSON adds: the model name
// takes a fast path only when encoding/json would copy it verbatim, the
// version is a plain integer, and each prediction is formatted with
// encoding/json's float64 rules. Every other response keeps writeJSON.

// encodeScoreResult returns the JSON encoding of res and a newline. The
// predictions must be finite; the handler answers 422 before it gets
// here otherwise. The buffer is sized once: 64 bytes hold the keys, the
// punctuation and any version, and a prediction takes at most 26 (25
// for a number such as -0.0000012345678901234567, one for its comma).
func encodeScoreResult(res *client.ScoreResult) []byte {
	dst := make([]byte, 0, 64+len(res.Model)+26*len(res.Predictions))
	dst = append(dst, `{"model":`...)
	dst = appendString(dst, res.Model)
	dst = append(dst, `,"version":`...)
	dst = strconv.AppendInt(dst, int64(res.Version), 10)
	dst = append(dst, `,"predictions":`...)
	if res.Predictions == nil {
		dst = append(dst, "null"...)
	} else {
		dst = append(dst, '[')
		for i, p := range res.Predictions {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = appendFloat(dst, p)
		}
		dst = append(dst, ']')
	}
	return append(dst, "}\n"...)
}

// appendString appends s as a JSON string. Printable ASCII other than
// the quote, the backslash and json.Marshal's HTML-escaped <, > and & is
// copied verbatim; anything else is left to json.Marshal, whose escaping
// (control bytes, invalid UTF-8, U+2028/U+2029) stays authoritative.
func appendString(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c < 0x20 || c >= 0x80, c == '"', c == '\\', c == '<', c == '>', c == '&':
			b, _ := json.Marshal(s) // a string always marshals
			return append(dst, b...)
		}
	}
	dst = append(dst, '"')
	dst = append(dst, s...)
	return append(dst, '"')
}

// appendFloat appends a finite f as encoding/json formats a float64:
// the shortest representation that round-trips, in 'f' form unless
// |f| < 1e-6 or |f| ≥ 1e21, with a two-digit negative exponent
// shortened (e-07 → e-7).
func appendFloat(dst []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst
}
