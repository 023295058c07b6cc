package core

import (
	"math"
	"sort"

	"repro/internal/ir"
	"repro/internal/passes"
)

// FeatureKind selects how a compiled module is characterised for the cost
// model (§5.5.3's alternative feature extraction comparison).
type FeatureKind int

// Feature extraction methods.
const (
	// FeatStats uses pass-related compilation statistics — CITROEN's method.
	FeatStats FeatureKind = iota
	// FeatAutophase uses Autophase-style static IR features (instruction
	// mix, blocks, phis, ...), which cannot see pass effects that leave the
	// IR mix unchanged (§3.4).
	FeatAutophase
	// FeatTokenMix uses a DeepTune-IR-like opcode token distribution.
	FeatTokenMix
	// FeatRawSeq feeds the raw pass sequence (bag + first positions) to the
	// model, the standard-BO baseline representation.
	FeatRawSeq
)

// String implements fmt.Stringer.
func (f FeatureKind) String() string {
	switch f {
	case FeatStats:
		return "stats"
	case FeatAutophase:
		return "autophase"
	case FeatTokenMix:
		return "tokenmix"
	case FeatRawSeq:
		return "rawseq"
	}
	return "feature?"
}

// FeatureKindFromString is the one parser of the CLI/API spelling of a
// feature kind (the names String prints). The empty string selects
// FeatStats, the default everywhere.
func FeatureKindFromString(s string) (FeatureKind, bool) {
	if s == "" {
		return FeatStats, true
	}
	for k := FeatStats; k <= FeatRawSeq; k++ {
		if k.String() == s {
			return k, true
		}
	}
	return FeatStats, false
}

// FeatureIndex maps named feature dimensions to vector slots. The statistics
// feature space is open-ended (new counters appear as the search visits new
// passes), so the index grows online; absent features read as zero.
type FeatureIndex struct {
	names []string
	slot  map[string]int
}

// NewFeatureIndex returns an empty index.
func NewFeatureIndex() *FeatureIndex {
	return &FeatureIndex{slot: map[string]int{}}
}

// Dim returns the current dimensionality.
func (fi *FeatureIndex) Dim() int { return len(fi.names) }

// Names returns the dimension names in slot order.
func (fi *FeatureIndex) Names() []string { return append([]string(nil), fi.names...) }

// slotFor returns (and creates) the slot of a named dimension.
func (fi *FeatureIndex) slotFor(name string) int {
	if s, ok := fi.slot[name]; ok {
		return s
	}
	s := len(fi.names)
	fi.names = append(fi.names, name)
	fi.slot[name] = s
	return s
}

// sparseVec is a feature vector under construction.
type sparseVec map[string]float64

// statsFeatures converts compilation statistics into named features with
// log-compressed magnitudes (counter ranges span orders of magnitude).
func statsFeatures(st passes.Stats) sparseVec {
	v := sparseVec{}
	for k, c := range st {
		v[k] = math.Log1p(float64(c))
	}
	return v
}

// autophaseFeatures computes static IR features of a compiled module in the
// spirit of Autophase: instruction counts per opcode class, block/phi/call
// counts, etc.
func autophaseFeatures(m *ir.Module) sparseVec {
	v := sparseVec{}
	add := func(k string, n float64) { v[k] += n }
	for _, f := range m.Funcs {
		if f.IsDecl {
			continue
		}
		add("af.Funcs", 1)
		add("af.Blocks", float64(len(f.Blocks)))
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				add("af.Op."+in.Op.String(), 1)
				if in.Ty.IsVector() {
					add("af.VectorOps", 1)
				}
				switch in.Op {
				case ir.OpPhi:
					add("af.Phis", 1)
				case ir.OpBr:
					add("af.Branches", 1)
				case ir.OpCall:
					add("af.Calls", 1)
				case ir.OpLoad:
					add("af.Loads", 1)
				case ir.OpStore:
					add("af.Stores", 1)
				}
			}
		}
	}
	add("af.Globals", float64(len(m.Globals)))
	for k := range v {
		v[k] = math.Log1p(v[k])
	}
	return v
}

// tokenFeatures computes a token-distribution representation (opcode plus
// result-type tokens), the DeepTune-IR-style sequence-of-tokens proxy.
func tokenFeatures(m *ir.Module) sparseVec {
	v := sparseVec{}
	total := 0.0
	for _, f := range m.Funcs {
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				v["tok."+in.Op.String()+"/"+in.Ty.String()]++
				total++
			}
		}
	}
	if total > 0 {
		for k := range v {
			v[k] = v[k] / total * 100
		}
	}
	return v
}

// rawSeqFeatures encodes the pass sequence itself: per-pass occurrence
// counts plus normalised first-occurrence positions.
func rawSeqFeatures(seq []string) sparseVec {
	v := sparseVec{}
	n := float64(len(seq))
	for i, p := range seq {
		v["seq.count."+p]++
		key := "seq.first." + p
		if _, seen := v[key]; !seen && n > 0 {
			v[key] = 1 - float64(i)/n
		}
	}
	return v
}

// extract builds the sparse features for one compiled module.
func extract(kind FeatureKind, m *ir.Module, st passes.Stats, seq []string) sparseVec {
	switch kind {
	case FeatAutophase:
		return autophaseFeatures(m)
	case FeatTokenMix:
		return tokenFeatures(m)
	case FeatRawSeq:
		return rawSeqFeatures(seq)
	default:
		return statsFeatures(st)
	}
}

// key returns a canonical string identity of the vector (for duplicate
// detection, Table 5.2).
func (v sparseVec) key() string {
	keys := make([]string, 0, len(v))
	for k := range v {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]byte, 0, len(keys)*12)
	for _, k := range keys {
		out = append(out, k...)
		out = append(out, '=')
		out = appendFloat(out, v[k])
		out = append(out, ';')
	}
	return string(out)
}

func appendFloat(b []byte, f float64) []byte {
	// Quantise to avoid spurious inequality from float noise.
	q := int64(f * 1e6)
	neg := q < 0
	if neg {
		q = -q
		b = append(b, '-')
	}
	var tmp [20]byte
	i := len(tmp)
	for {
		i--
		tmp[i] = byte('0' + q%10)
		q /= 10
		if q == 0 {
			break
		}
	}
	return append(b, tmp[i:]...)
}

// sortedKeys returns v's keys in sorted order. Slot registration must use it:
// map iteration order would make the dense layout (and every float reduction
// the GP runs over it) vary run to run, which breaks bit-identical journals.
func (v sparseVec) sortedKeys() []string {
	keys := make([]string, 0, len(v))
	for k := range v {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// dense materialises the vector under the index, registering new dimensions.
// prefix namespaces per-module features when concatenating (§5.3.1).
func (v sparseVec) dense(fi *FeatureIndex, prefix string) []float64 {
	for _, k := range v.sortedKeys() {
		fi.slotFor(prefix + k)
	}
	out := make([]float64, fi.Dim())
	for k, val := range v {
		out[fi.slot[prefix+k]] = val
	}
	return out
}

// novelDims counts dimensions active in v that have never been non-zero in
// any observed vector (the coverage bonus input, §5.3.4).
func (v sparseVec) novelDims(seen map[string]bool, prefix string) int {
	n := 0
	for k, val := range v {
		if val != 0 && !seen[prefix+k] {
			n++
		}
	}
	return n
}

// markSeen records v's active dimensions.
func (v sparseVec) markSeen(seen map[string]bool, prefix string) {
	for k, val := range v {
		if val != 0 {
			seen[prefix+k] = true
		}
	}
}
