package main

// Expected outputs. The suite sizes hold for every seed; the digests are
// the SHA-256 of dataset.WriteCSV and Tree.WriteJSON output at the
// repository's default generation seed and default train/test split.
// A change that alters any of these bytes must re-pin them here and say
// why.
const (
	pinnedSeed = 20080419
	cpuSamples = 6140
	ompSamples = 2300
)

var pinned = map[string]string{
	"cpu2006.csv":   "32b1453994e1c806b920d17cce293e09636c8789f94c4887e5f2b46d48632005",
	"omp2001.csv":   "6b40950c4359c13cf5a7f4ca5c29a45785e626c2edbe479ba77247497a874ff1",
	"cpu2006.tree":  "efc664af03fc6eced7c93ece0171aff201b09f4726404ee92ba432547d4d33ad",
	"omp2001.tree":  "3f64ccd9011c8817a23119cb627c9cdf00081c304b3a4823d0b93db0c7093a6e",
	"cpu2006.model": "3c98ebb1125529bfb79c8211b3066ce643bfe159a0adcef10f440fea5e6ffcf4",
	"omp2001.model": "ad8e0a838bafcbb9074c6883b2986cfaee147de78768a11ab3d82541138aafa9",
}
