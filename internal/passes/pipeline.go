package passes

// O3Sequence mirrors the structure of LLVM's -O3 pass pipeline: IPO and
// canonicalisation, scalar simplification, a loop-optimisation nest,
// redundancy elimination, vectorisation, then late cleanup. The pass
// sequence length (and the 76-pass vocabulary) matches the paper's search
// space construction (§3.3: "76 distinct passes and pass sequences of
// length 120 ... inspired by the structure of the -O3 optimisation level").
func O3Sequence() []string {
	return []string{
		// Module canonicalisation.
		"inferattrs", "ipsccp", "globalopt", "deadargelim",
		"instcombine", "simplifycfg",
		// Inliner + function attrs.
		"always-inline", "inline", "function-attrs", "argpromotion",
		// Scalar cleanup after inlining.
		"sroa", "early-cse-memssa", "speculative-execution",
		"jump-threading", "correlated-propagation", "simplifycfg",
		"instcombine", "aggressive-instcombine",
		"partially-inline-libcalls", "tailcallelim", "simplifycfg",
		"reassociate",
		// Loop nest (canonicalise, rotate, hoist, unswitch, idioms).
		"loop-simplify", "lcssa", "loop-rotate", "licm",
		"simple-loop-unswitch", "simplifycfg", "instcombine",
		"loop-instsimplify", "indvars", "loop-idiom", "loop-deletion",
		"loop-unroll",
		// Redundancy elimination.
		"mldst-motion", "gvn", "sccp", "bdce", "instcombine",
		"jump-threading", "correlated-propagation", "dse",
		// Second LICM after DSE, then cleanup.
		"loop-simplify", "lcssa", "licm", "adce", "simplifycfg",
		"instcombine",
		// Vectorisation.
		"loop-simplify", "loop-rotate", "loop-vectorize",
		"loop-load-elim", "instcombine", "simplifycfg",
		"slp-vectorizer", "vector-combine", "instcombine",
		// Late loop and global cleanup.
		"loop-unroll", "instcombine", "loop-simplify", "lcssa", "licm",
		"div-rem-pairs", "simplifycfg",
		"globaldce", "constmerge", "strip-dead-prototypes",
	}
}

// LLVM10Names is the reduced pass vocabulary used for the "older compiler"
// comparison (Fig 5.10): passes absent from the legacy pass manager era are
// excluded.
func LLVM10Names() []string {
	excluded := map[string]bool{
		"aggressive-instcombine": true, "constraint-elimination": true,
		"loop-data-prefetch": true, "vector-combine": true,
		"mergeicmps": true, "callsite-splitting": true,
		"gvn-hoist": true, "gvn-sink": true, "newgvn": true,
		"loop-fusion": true, "slsr": true, "loop-sink": true,
		"separate-const-offset-from-gep": true, "expand-reductions": true,
	}
	var out []string
	for _, name := range Names() {
		if !excluded[name] {
			out = append(out, name)
		}
	}
	return out
}

// Families groups the registry for documentation (Table 5.3).
func Families() map[string][]string {
	fam := map[string][]string{}
	ipo := map[string]bool{
		"inline": true, "always-inline": true, "function-attrs": true,
		"rpo-function-attrs": true, "inferattrs": true, "globalopt": true,
		"globaldce": true, "deadargelim": true, "argpromotion": true,
		"constmerge": true, "strip-dead-prototypes": true, "mergefunc": true,
		"ipsccp": true,
	}
	loop := map[string]bool{
		"loop-simplify": true, "lcssa": true, "loop-rotate": true,
		"licm": true, "loop-deletion": true, "loop-idiom": true,
		"indvars": true, "simple-loop-unswitch": true, "lsr": true,
		"loop-sink": true, "loop-instsimplify": true, "loop-simplifycfg": true,
		"loop-data-prefetch": true, "loop-fusion": true, "loop-unroll": true,
		"loop-unroll-full": true, "loop-load-elim": true,
	}
	vector := map[string]bool{
		"loop-vectorize": true, "slp-vectorizer": true,
		"vector-combine": true, "load-store-vectorizer": true,
		"scalarizer": true, "expand-reductions": true,
	}
	for _, name := range Names() {
		switch {
		case ipo[name]:
			fam["ipo"] = append(fam["ipo"], name)
		case loop[name]:
			fam["loop"] = append(fam["loop"], name)
		case vector[name]:
			fam["vector"] = append(fam["vector"], name)
		default:
			fam["scalar"] = append(fam["scalar"], name)
		}
	}
	return fam
}
