package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"math/rand"
	"testing"

	"specchar/internal/client"
)

// The appender is an accelerator for json.Marshal, not a second
// encoding: for every model name and every finite prediction its bytes
// equal json.Marshal's plus the newline writeJSON adds.
func TestEncodeScoreResultMatchesMarshal(t *testing.T) {
	values := []float64{
		0, math.Copysign(0, -1), 5e-324, -5e-324, 1, -1, 0.1, 0.1 + 0.2,
		math.Nextafter(1e-6, 0), 1e-6, math.Nextafter(1e-6, 1), -1e-6, 1e-7, 1.5e-7, 1e-10, 1e-100,
		math.Nextafter(1e21, 0), 1e21, math.Nextafter(1e21, math.Inf(1)), -1e21, 1e22, 1e100,
		math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64, 2.2250738585072014e-308,
		1.2345678901234567, -9.876543210987654e-5, 123456789012345680, 0.30000000000000004,
	}
	rng := rand.New(rand.NewSource(1))
	for len(values) < 512 {
		f := math.Float64frombits(rng.Uint64())
		if !math.IsInf(f, 0) && !math.IsNaN(f) {
			values = append(values, f)
		}
	}
	names := []string{
		"cpu2006", "", "a<b>&c", `say "hi"`, `back\slash`, "line\u2028sep\u2029", "café",
		"tab\there", "nul\x00", "del\x7f", "bad\xffutf8", "日本語", "model/v2:latest",
	}
	preds := [][]float64{nil, {}, values[:1], values[:2], values}
	for _, name := range names {
		for _, p := range preds {
			res := client.ScoreResult{Model: name, Version: len(p) - 1, Predictions: p}
			want, err := json.Marshal(&res)
			if err != nil {
				t.Fatal(err)
			}
			want = append(want, '\n')
			if got := encodeScoreResult(&res); !bytes.Equal(got, want) {
				t.Fatalf("model %q, %d predictions:\n got %s\nwant %s", name, len(p), got, want)
			}
		}
	}
	for _, v := range values {
		res := client.ScoreResult{Predictions: []float64{v}}
		want, _ := json.Marshal(&res)
		if got := encodeScoreResult(&res); !bytes.Equal(got, append(want, '\n')) {
			t.Errorf("%v (%#x): got %s, want %s", v, math.Float64bits(v), got, want)
		}
	}
}

// Score and ScoreBytes, through the daemon's appender on one end and the
// client's scanner on the other, return predictions bit-identical to the
// offline batch path.
func TestClientScoresMatchPredictDataset(t *testing.T) {
	f := newFixture(t, Config{})
	cl, err := client.New(client.Config{BaseURL: f.ts.URL})
	if err != nil {
		t.Fatal(err)
	}
	want := f.tree.PredictDataset(f.data)
	ctx := context.Background()
	for _, n := range []int{1, 7, 512} {
		rows := rowsOf(f.data, 0, n)
		res, err := cl.Score(ctx, "cpu2006", rows)
		if err != nil {
			t.Fatal(err)
		}
		body, err := json.Marshal(scoreRequest{Model: "cpu2006", Samples: rows})
		if err != nil {
			t.Fatal(err)
		}
		resb, err := cl.ScoreBytes(ctx, body)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range []*client.ScoreResult{res, resb} {
			if r.Model != "cpu2006" || r.Version != 1 || !sameBits(r.Predictions, want[:n]) {
				t.Fatalf("%d rows: got %s v%d %v, want %v", n, r.Model, r.Version, r.Predictions, want[:n])
			}
		}
	}
}

var encodeSink []byte

// BenchmarkEncodeScoreResponse times the response encode layer alone on
// a 512-prediction body: the appender the handler uses against the
// json.Marshal it replaced.
func BenchmarkEncodeScoreResponse(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	res := client.ScoreResult{Model: "cpu2006", Version: 3, Predictions: make([]float64, 512)}
	for i := range res.Predictions {
		res.Predictions[i] = 0.3 + 4*rng.Float64()
	}
	for _, bc := range []struct {
		name   string
		encode func() []byte
	}{
		{"appender", func() []byte { return encodeScoreResult(&res) }},
		{"encoding-json", func() []byte {
			body, err := json.Marshal(&res)
			if err != nil {
				b.Fatal(err)
			}
			return append(body, '\n')
		}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.SetBytes(int64(len(bc.encode())))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				encodeSink = bc.encode()
			}
		})
	}
}
