package specchar

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"specchar/internal/dataset"
	"specchar/internal/suites"
)

// The generator's golden digests: the SHA-256 of dataset.WriteCSV output
// for generated suites. Every simulator change (trace generator or µarch
// model) must keep these bytes identical; a change that alters them on
// purpose re-pins the digests here and states the model change it makes.

// datasetDigest returns the hex SHA-256 of the dataset's CSV encoding.
func datasetDigest(t *testing.T, d *dataset.Dataset) string {
	t.Helper()
	h := sha256.New()
	if err := d.WriteCSV(h); err != nil {
		t.Fatal(err)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestGeneratorGoldenFullScale pins both full-scale suites of the shared
// study (DefaultConfig, default seed). The study is already built for the
// other integration tests, so the check costs two hashes.
func TestGeneratorGoldenFullScale(t *testing.T) {
	s := fullStudy(t)
	for _, tc := range []struct {
		name string
		d    *dataset.Dataset
		want string
	}{
		{"CPU2006", s.CPU, "32b1453994e1c806b920d17cce293e09636c8789f94c4887e5f2b46d48632005"},
		{"OMP2001", s.OMP, "6b40950c4359c13cf5a7f4ca5c29a45785e626c2edbe479ba77247497a874ff1"},
	} {
		if got := datasetDigest(t, tc.d); got != tc.want {
			t.Errorf("%s dataset SHA-256 = %s, want %s", tc.name, got, tc.want)
		}
	}
}

// TestGeneratorGoldenQuick pins every CPU generation at QuickConfig scale,
// plus OMP2001 with a contending sibling core, which drives the shared-L2
// core pair.
func TestGeneratorGoldenQuick(t *testing.T) {
	want := map[string]string{
		"SPEC CPU2000":            "268f5a5890006f6312f7cda2ce46413c2010701585b32152e7832ae641317829",
		"SPEC CPU2006":            "dfd78402cdf100179a1dda88df022b31794920000383eb3a28cfb7b3dafd9d58",
		"SPEC CPU2017":            "e4e081445a3fb692a54fd040dbb38f7f83909df40b18eaddfa30dc2bb6dfee59",
		"SPEC CPU2026":            "86ddf105106bb1bd9977895f1a6e6a1d8b0bfe93be15d2352c40a74b460f49c7",
		"SPEC OMP2001/contention": "ee8a401367fd528d62a83da8442a21d3afb955fb6392c818e054341b8f294202",
	}
	type job struct {
		name  string
		suite *suites.Suite
		opts  suites.GenOptions
	}
	var jobs []job
	for _, s := range suites.Generations() {
		jobs = append(jobs, job{s.Name, s, QuickConfig().Gen})
	}
	contended := QuickConfig().Gen
	contended.Contention = true
	jobs = append(jobs, job{"SPEC OMP2001/contention", suites.OMP2001(), contended})
	for _, j := range jobs {
		t.Run(j.name, func(t *testing.T) {
			d, err := suites.Generate(j.suite, j.opts)
			if err != nil {
				t.Fatal(err)
			}
			if got := datasetDigest(t, d); got != want[j.name] {
				t.Errorf("dataset SHA-256 = %s, want %s", got, want[j.name])
			}
		})
	}
}
