package bench

import (
	"hash/fnv"
	"testing"

	"repro/internal/passes"
)

// TestSeqHashMatchesFNV: seqHash is 64-bit FNV-1a over the names, each
// followed by the byte 1, exactly as hash/fnv's New64a computes it over that
// stream, so every cache key keeps its value.
func TestSeqHashMatchesFNV(t *testing.T) {
	want := func(names []string) uint64 {
		h := fnv.New64a()
		for _, p := range names {
			h.Write([]byte(p))
			h.Write([]byte{1})
		}
		return h.Sum64()
	}
	seqs := [][]string{
		nil,
		{},
		{""},
		{"", ""},
		{"mem2reg"},
		{"mem2reg", "instcombine", "gvn"},
		{"mem", "2reg"},
		{"\x01", "\xff\x00"},
		passes.O3Sequence(),
		passes.Names(),
	}
	for _, seq := range seqs {
		if got, w := seqHash(seq), want(seq); got != w {
			t.Fatalf("seqHash(%q) = %#x, fnv.New64a gives %#x", seq, got, w)
		}
	}
	// No name, no byte: the hash is the FNV-1a offset basis.
	if got := seqHash(nil); got != 0xcbf29ce484222325 {
		t.Fatalf("seqHash(nil) = %#x, want the FNV-1a offset basis", got)
	}
}
