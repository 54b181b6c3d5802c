package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"
)

// sameResult reports whether a and b hold the same model and version and
// predictions with the same nil-ness and bit-identical values.
func sameResult(a, b ScoreResult) bool {
	if a.Model != b.Model || a.Version != b.Version || (a.Predictions == nil) != (b.Predictions == nil) ||
		len(a.Predictions) != len(b.Predictions) {
		return false
	}
	for i := range a.Predictions {
		if math.Float64bits(a.Predictions[i]) != math.Float64bits(b.Predictions[i]) {
			return false
		}
	}
	return true
}

// resultForms are the daemon's own form plus the variations a body may
// take without the daemon writing it; each must decode exactly as
// encoding/json decodes it.
var resultForms = []struct{ name, body string }{
	{"daemon form", `{"model":"cpu2006","version":3,"predictions":[1.5,-0.25,0,-0,5e-324,1e21,1.7976931348623157e+308]}` + "\n"},
	{"empty predictions", `{"model":"cpu2006","version":1,"predictions":[]}`},
	{"whitespace", " {\n\t\"model\" : \"m\" ,\r\n \"version\":1 , \"predictions\" : [ 1 , 2 ] } \n"},
	{"reordered keys", `{"predictions":[1.5],"version":2,"model":"m"}`},
	{"unknown key", `{"model":"m","version":1,"extra":{"a":[1,"x",null]},"predictions":[1.5]}`},
	{"escaped model", `{"model":"a\u003cb\u003e","version":1,"predictions":[1.5]}`},
	{"non-ASCII model", `{"model":"café","version":1,"predictions":[1.5]}`},
	{"null predictions", `{"model":"m","version":1,"predictions":null}`},
	{"exponent version", `{"model":"m","version":1e2,"predictions":[1]}`},
	{"fraction version", `{"model":"m","version":1.0,"predictions":[1]}`},
	{"overflowing version", `{"model":"m","version":99999999999999999999,"predictions":[1]}`},
	{"trailing value", `{"model":"m","version":1,"predictions":[1.5]}{"model":"x"}`},
	{"trailing garbage", `{"model":"m","version":1,"predictions":[1.5]}garbage`},
	{"truncated", `{"model":"m","version":1,"predictions":[1.5,`},
	{"out of range number", `{"model":"m","version":1,"predictions":[1e999]}`},
	{"duplicate key", `{"model":"m","model":"n","version":1,"predictions":[1]}`},
	{"case-folded keys", `{"Model":"m","VERSION":1,"predictions":[1]}`},
	{"string version", `{"model":"m","version":"1","predictions":[1]}`},
	{"empty object", `{}`},
}

// decodeSeeds add bodies at the edges of the grammar to resultForms.
var decodeSeeds = []string{
	`{"model":null,"version":null,"predictions":[null]}`,
	`{"model":"m","version":-0,"predictions":[1]}`,
	`{"predictions":[01]}`,
	`[]`,
	`null`,
	``,
}

// The scanner is an accelerator, not a second decoder: for any body,
// decodeScoreResult and encoding/json's Decode either both fail or both
// succeed with the same result, and whatever the scanner accepts
// encoding/json accepts with the same value.
func FuzzDecodeScoreResult(f *testing.F) {
	for _, form := range resultForms {
		f.Add([]byte(form.body))
	}
	for _, s := range decodeSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var want, got ScoreResult
		wantErr := json.NewDecoder(bytes.NewReader(body)).Decode(&want)
		gotErr := decodeScoreResult(bytes.NewReader(body), int64(len(body)), &got)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("%q: decode error %v, encoding/json error %v", body, gotErr, wantErr)
		}
		if gotErr == nil && !sameResult(got, want) {
			t.Fatalf("%q: decoded %+v, encoding/json %+v", body, got, want)
		}
		var scanned ScoreResult
		if scanScoreResult(body, &scanned) && (wantErr != nil || !sameResult(scanned, want)) {
			t.Fatalf("%q: scanner accepted %+v, encoding/json %+v (%v)", body, scanned, want, wantErr)
		}
	})
}

// Each form decodes through Score exactly as encoding/json decodes it
// from the same response, error for error; the 4xx body still becomes an
// APIError.
func TestScoreResultForms(t *testing.T) {
	for _, form := range resultForms {
		name, body := form.name, form.body
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.Write([]byte(body))
		}))
		var want ScoreResult
		resp, err := http.Get(ts.URL)
		if err != nil {
			t.Fatal(err)
		}
		wantErr := json.NewDecoder(resp.Body).Decode(&want)
		resp.Body.Close()
		c, err := New(Config{BaseURL: ts.URL, MaxRetries: -1})
		if err != nil {
			t.Fatal(err)
		}
		got, gotErr := c.Score(context.Background(), "m", [][]float64{{1}})
		ts.Close()
		switch {
		case (gotErr == nil) != (wantErr == nil):
			t.Errorf("%s: error %v, encoding/json error %v", name, gotErr, wantErr)
		case gotErr != nil && gotErr.Error() != wantErr.Error():
			t.Errorf("%s: error %q, encoding/json error %q", name, gotErr, wantErr)
		case gotErr == nil && !sameResult(*got, want):
			t.Errorf("%s: decoded %+v, encoding/json %+v", name, *got, want)
		}
	}

	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusBadRequest)
		w.Write([]byte(`{"error":"no samples"}`))
	}))
	defer ts.Close()
	c, err := New(Config{BaseURL: ts.URL})
	if err != nil {
		t.Fatal(err)
	}
	_, err = c.Score(context.Background(), "m", nil)
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusBadRequest || apiErr.Message != "no samples" {
		t.Errorf("4xx body: error %v, want APIError 400 \"no samples\"", err)
	}
}

// A response cut short on the wire (the declared Content-Length never
// arrives) fails with the error encoding/json reports reading it.
func TestScoreResultCutOnTheWire(t *testing.T) {
	body := `{"model":"m","version":1,"predictions":[1.5,2.5]}`
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Length", strconv.Itoa(len(body)))
		w.Write([]byte(body[:len(body)/2]))
	}))
	defer ts.Close()
	resp, err := http.Get(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	var want ScoreResult
	wantErr := json.NewDecoder(resp.Body).Decode(&want)
	resp.Body.Close()
	c, err := New(Config{BaseURL: ts.URL, MaxRetries: -1})
	if err != nil {
		t.Fatal(err)
	}
	_, gotErr := c.Score(context.Background(), "m", [][]float64{{1}})
	if wantErr == nil || gotErr == nil || gotErr.Error() != wantErr.Error() {
		t.Errorf("error %v, encoding/json error %v", gotErr, wantErr)
	}
}

var resultSink ScoreResult

// BenchmarkDecodeScoreResult times the response decode layer alone on a
// 512-prediction body as the daemon writes it: the scanner the client
// uses against the encoding/json decoder it falls back to.
func BenchmarkDecodeScoreResult(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	res := ScoreResult{Model: "cpu2006", Version: 3, Predictions: make([]float64, 512)}
	for i := range res.Predictions {
		res.Predictions[i] = 0.3 + 4*rng.Float64()
	}
	body, err := json.Marshal(&res)
	if err != nil {
		b.Fatal(err)
	}
	body = append(body, '\n')
	for _, bc := range []struct {
		name   string
		decode func(*ScoreResult) error
	}{
		{"scanner", func(out *ScoreResult) error {
			return decodeScoreResult(bytes.NewReader(body), int64(len(body)), out)
		}},
		{"encoding-json", func(out *ScoreResult) error {
			return json.NewDecoder(bytes.NewReader(body)).Decode(out)
		}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.SetBytes(int64(len(body)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				resultSink = ScoreResult{}
				if err := bc.decode(&resultSink); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
