package experiments

import (
	"repro/internal/numeric"
	"repro/internal/tuners"
)

func init() {
	register("greedy", "statistics-connectivity greedy planner: standalone vs BO seeding vs unseeded BO", runGreedy)
}

// runGreedy compares the three deployments of the pass-interaction planner:
// the microsecond-scale standalone GreedyStats tuner, CITROEN with the
// greedy-seeded candidate pool, and unseeded CITROEN — all at the same
// runtime-measurement budget.
func runGreedy(c Config) error {
	plat := c.Platform
	benches := c.benchSet(defaultCBenchSubset)
	c.printf("Greedy statistics-connectivity planner (budget %d, platform %s, %d repeat(s))\n",
		c.Budget, plat.Prof.Name, c.Repeats)
	c.printf("%-22s %12s %12s %12s\n", "benchmark", "GreedyStats", "CITROEN", "CITROEN+seed")
	perMethod := map[string][]float64{}
	for _, b := range benches {
		var greedy, plain, seeded []float64
		for r := 0; r < c.Repeats; r++ {
			seed := c.Seed + int64(r)*101
			spG, _, err := runBaseline(tuners.GreedyStats{}, b, plat, c.Budget, seed)
			if err != nil {
				return err
			}
			greedy = append(greedy, spG)

			opts := c.tunerOptions()
			opts.SeedGreedy = false
			spP, _, err := runCitroen(b, plat, opts, seed)
			if err != nil {
				return err
			}
			plain = append(plain, spP)

			opts = c.tunerOptions()
			opts.SeedGreedy = true
			spS, _, err := runCitroen(b, plat, opts, seed)
			if err != nil {
				return err
			}
			seeded = append(seeded, spS)
		}
		c.printf("%-22s %11.3fx %11.3fx %11.3fx\n",
			b.Name, numeric.GeoMean(greedy), numeric.GeoMean(plain), numeric.GeoMean(seeded))
		perMethod["GreedyStats"] = append(perMethod["GreedyStats"], greedy...)
		perMethod["CITROEN"] = append(perMethod["CITROEN"], plain...)
		perMethod["CITROEN+seed"] = append(perMethod["CITROEN+seed"], seeded...)
	}
	c.printf("%-22s %11.3fx %11.3fx %11.3fx\n", "geo-mean",
		numeric.GeoMean(perMethod["GreedyStats"]), numeric.GeoMean(perMethod["CITROEN"]),
		numeric.GeoMean(perMethod["CITROEN+seed"]))
	c.printf("\n(paper shape: the greedy plan recovers most of O3's headroom for free;\n" +
		" seeding starts BO from it instead of random sequences)\n")
	return nil
}
