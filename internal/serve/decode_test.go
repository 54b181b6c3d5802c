package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"runtime"
	"strings"
	"testing"
	"testing/iotest"
	"unsafe"

	"specchar/internal/suites"
)

// sameRequest reports whether a and b name the same model and hold rows
// of the same lengths with bit-identical values.
func sameRequest(a, b scoreRequest) bool {
	if a.Model != b.Model || len(a.Samples) != len(b.Samples) {
		return false
	}
	for i := range a.Samples {
		if !sameBits(a.Samples[i], b.Samples[i]) {
			return false
		}
	}
	return true
}

// decodeSeeds are the bodies of the handler tests plus forms at the
// edges of the scanner's grammar.
var decodeSeeds = []string{
	"",
	"hi",
	`{"model":"cpu2006","samples":[[1,2,3,4]]}`,
	`{"samples":[[1,2,3,4]]}`,
	`{"model":"cpu2006"}`,
	`{"model":"cpu2006","samples":[[1,2]]}`,
	`{"model":"cpu2006","samples":[[1,2,3,4],[1]]}`,
	`{"model":"cpu2006","samples":[[1,2,3,4]]}{"x":1}`,
	`{"model":"cpu2006","samples":[[1,2,3,1e999]]}`,
	`{"model":"cpu2006","samples":[[1,2,3,"4"]]}`,
	`{"model":"cpu2006","samples":[[1,2,3,`,
	" \t\r\n{ \"model\" :\n\"cpu2006\" , \"samples\"\t: [ [ 1 ,\n 2 ] ] } \n",
	`{"samples":[[0.25,-1.5e-3]],"model":"cpu2006"}`,
	`{"model":"cpu2006","samples":[[1,2,3,4]]}`,
	`{"Model":"cpu2006","samples":[[1,2,3,4]]}`,
	`{"model":"cpu2006","extra":{"a":[1,"x",null]},"samples":[[1,2,3,4]]}`,
	`{"model":"cpu2006","samples":[[-0,0.0,-0e0,1E+2]]}`,
	`{"model":"cpu2006","model":"x","samples":[[1]]}`,
	`{"model":"cpu2006","samples":[[1]],"samples":[[2,3]]}`,
	`{"model":null,"samples":null}`,
	`{"model":"cpu2006","samples":[[],[]]}`,
	`{"model":"cpu2006","samples":[]}`,
	`{}`,
	`{"model":"café","samples":[[01]]}`,
	`{"model":"cpu2006","samples":[[1.,.5,+1,0x10,NaN,Infinity,1e-400]]}`,
	`{"model":"cpu2006","samples":[[1],]}`,
	`{"model":"cpu2006","samples":[[1,2]],}`,
	"{\"model\":\"cpu\x7f2006\",\"samples\":[[1]]}",
	"{\"model\":\"cpu\x002006\",\"samples\":[[1]]}",
	"\ufeff{\"model\":\"cpu2006\",\"samples\":[[1]]}",
}

// The scanner is an accelerator, not a second decoder: for any body,
// decodeScoreRequest and decodeJSON (the encoding/json Decode + Token
// sequence) either both fail or both succeed with the same model and
// bit-identical rows, and whatever the scanner accepts encoding/json
// accepts with the same value.
func FuzzDecodeScoreRequest(f *testing.F) {
	for _, s := range decodeSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		want, wantErr := decodeJSON(bytes.NewReader(body))
		got, gotErr := decodeScoreRequest(bytes.NewReader(body), int64(len(body)), math.MaxInt64)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("%q: decode error %v, encoding/json error %v", body, gotErr, wantErr)
		}
		if gotErr == nil && !sameRequest(got, want) {
			t.Fatalf("%q: decoded %+v, encoding/json %+v", body, got, want)
		}
		if scanned, ok := scanScoreRequest(body); ok && (wantErr != nil || !sameRequest(scanned, want)) {
			t.Fatalf("%q: scanner accepted %+v, encoding/json %+v (%v)", body, scanned, want, wantErr)
		}
	})
}

// The scanner must actually take the forms clients send, or the handler
// silently falls back to encoding/json on every request.
func TestScannerAcceptsClientBodies(t *testing.T) {
	rows := [][]float64{{0.1, -2.5e-7, 3, 1e300}, {math.Copysign(0, -1), 5e-324, 1, 2}}
	body, err := json.Marshal(map[string]any{"model": "cpu2006", "samples": rows})
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range []string{
		string(body),
		`{"model":"cpu2006","samples":[[1,2,3,4]]}`,
		" \t\r\n{ \"model\" :\n\"cpu2006\" , \"samples\"\t: [ [ 1 ,\n 2 ] ] } \n",
		`{"samples":[[0.25,-1.5e-3]],"model":"cpu2006"}`,
		`{"model":"cpu2006","samples":[[-0,0.0,-0e0,1E+2]]}`,
		`{"model":"cpu2006","samples":[[],[]]}`,
	} {
		got, ok := scanScoreRequest([]byte(b))
		if !ok {
			t.Errorf("scanner declined %q", b)
			continue
		}
		if want, err := decodeJSON(strings.NewReader(b)); err != nil || !sameRequest(got, want) {
			t.Errorf("%q: scanned %+v, encoding/json %+v (%v)", b, got, want, err)
		}
	}
	got, _ := scanScoreRequest(body)
	end := unsafe.Add(unsafe.Pointer(unsafe.SliceData(got.Samples[0])), len(rows[0])*8)
	if len(got.Samples) != 2 || end != unsafe.Pointer(unsafe.SliceData(got.Samples[1])) {
		t.Error("rows are not consecutive sub-slices of one slab")
	}
}

// A body cut short by the size limit decodes as encoding/json would read
// it through the limiting reader: same error, whatever the bytes were.
func TestDecodeReplaysReadError(t *testing.T) {
	body := `{"model":"cpu2006","samples":[[1,2,3,4],[5,6,7,8]]}`
	for _, limit := range []int64{0, 10, int64(len(body)) - 1} {
		src := io.LimitReader(strings.NewReader(body), limit)
		cut := io.MultiReader(src, iotest.ErrReader(io.ErrClosedPipe))
		_, err := decodeScoreRequest(cut, int64(len(body)), limit)
		if err == nil || !strings.Contains(err.Error(), io.ErrClosedPipe.Error()) {
			t.Errorf("limit %d: error %v, want the read error", limit, err)
		}
	}
}

// Decoding reserves memory only for what the body holds: bytes that are
// not values (brackets inside the model name, a run of commas) must not
// size any allocation. Each body is 512 KiB; decoding may allocate the
// buffered body, the model string and small change, not a multiple of
// the brackets or commas it contains.
func TestDecodeAllocationsBoundedByBody(t *testing.T) {
	const n = 512 << 10
	for name, body := range map[string]string{
		"brackets in model": `{"samples":[[1]],"model":"` + strings.Repeat("[", n) + `"}`,
		"commas in row":     `{"model":"cpu2006","samples":[[1` + strings.Repeat(",", n) + `]]}`,
	} {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		req, _ := decodeScoreRequest(strings.NewReader(body), int64(len(body)), math.MaxInt64)
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 3*uint64(len(body)) {
			t.Errorf("%s: decoding a %d-byte body allocated %d bytes", name, len(body), grew)
		}
		if c := cap(req.Samples); c > 1 {
			t.Errorf("%s: one row decoded into a rows slice of capacity %d", name, c)
		}
	}
}

var decodeSink scoreRequest

// BenchmarkDecodeScoreRequest times the decode layer alone on one
// 512-row body of the CPU2006 schema, as the client encodes it: the
// scanner path the handler takes against the encoding/json decoder it
// falls back to.
func BenchmarkDecodeScoreRequest(b *testing.B) {
	opts := suites.DefaultGenOptions()
	opts.SamplesPerBenchmark, opts.OpsPerWindow, opts.WarmupOps = 20, 512, 8000
	ds, err := suites.Generate(suites.CPU2006(), opts)
	if err != nil {
		b.Fatal(err)
	}
	if ds.Len() < 512 {
		b.Fatalf("generated %d samples, want 512", ds.Len())
	}
	body, err := json.Marshal(map[string]any{"model": "cpu2006", "samples": ds.Xs()[:512]})
	if err != nil {
		b.Fatal(err)
	}
	for _, bc := range []struct {
		name   string
		decode func() (scoreRequest, error)
	}{
		{"scanner", func() (scoreRequest, error) {
			return decodeScoreRequest(bytes.NewReader(body), int64(len(body)), math.MaxInt64)
		}},
		{"encoding-json", func() (scoreRequest, error) { return decodeJSON(bytes.NewReader(body)) }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.SetBytes(int64(len(body)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if decodeSink, err = bc.decode(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
