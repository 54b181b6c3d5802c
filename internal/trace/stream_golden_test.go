package trace_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"

	"specchar/internal/dataset"
	"specchar/internal/suites"
	"specchar/internal/trace"
)

// streamOpsPerPhase is how many ops of each phase the stream digest covers.
const streamOpsPerPhase = 20000

// streamDigest hashes every field of the first streamOpsPerPhase ops of
// every phase of the suite, each phase generated from its own fresh RNG.
func streamDigest(t *testing.T, s *suites.Suite) string {
	t.Helper()
	h := sha256.New()
	var buf [32]byte
	for bi := range s.Benchmarks {
		for pi, ph := range s.Benchmarks[bi].Phases {
			seed := uint64(bi+1)<<20 ^ uint64(pi+1)
			g, err := trace.NewGenerator(ph, dataset.NewRNG(seed))
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < streamOpsPerPhase; i++ {
				op := g.Next()
				buf[0] = byte(op.Kind)
				buf[1] = boolByte(op.PartialOverlap)
				buf[2] = boolByte(op.Taken)
				buf[3] = boolByte(op.FpAssist)
				binary.LittleEndian.PutUint32(buf[4:], op.Size)
				binary.LittleEndian.PutUint64(buf[8:], op.PC)
				binary.LittleEndian.PutUint64(buf[16:], op.Addr)
				binary.LittleEndian.PutUint64(buf[24:], uint64(int64(op.AliasDist)))
				h.Write(buf[:])
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

func boolByte(b bool) byte {
	if b {
		return 1
	}
	return 0
}

// TestGeneratorStreamGolden pins the op streams of CPU2006 and OMP2001 at
// the trace layer alone, independent of the µarch simulator: a change to
// the generator's RNG handling or draw order shows here before it shows in
// the generated datasets.
func TestGeneratorStreamGolden(t *testing.T) {
	for _, tc := range []struct {
		suite *suites.Suite
		want  string
	}{
		{suites.CPU2006(), "a59d7f8fde090445fb06a29cd8138ccad8dbc79b295491eb60c24d3e0f0f36b8"},
		{suites.OMP2001(), "a05cf5fcba02b3f9b8b9694a1dd8a6b2b34e3075038bb59ed07a6352249f5c1e"},
	} {
		if got := streamDigest(t, tc.suite); got != tc.want {
			t.Errorf("%s op-stream SHA-256 = %s, want %s", tc.suite.Name, got, tc.want)
		}
	}
}
