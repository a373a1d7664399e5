// Costmodel: explore the paper's §IV cost model directly — the worked
// example, plan crossovers as the update/delete ratio grows, and the
// effect of the expected number of following reads (k).
package main

import (
	"fmt"

	"dualtable"
	"dualtable/internal/costmodel"
)

func main() {
	db, err := dualtable.Open(dualtable.DefaultConfig())
	if err != nil {
		panic(err)
	}
	model := db.CostModel()

	// The paper's worked example: D = 100 GB, α = 0.01, k = 30, with
	// HDFS write 1 GB/s and HBase write/read 0.8/0.5 GB/s → 38.75 s.
	paper, w := costmodel.WorkedExample()
	fmt.Printf("§IV worked example: CostU = %.2f s (paper: 38.75 s)\n\n", costmodel.New(paper).UpdateCost(w))

	// Plan choice across ratios on a 20 GB, 200M-row table.
	base := costmodel.Workload{
		TableBytes:         20e9,
		TableRows:          200e6,
		FollowingReads:     1,
		AvgRowBytes:        100,
		MarkerBytes:        16,
		UpdatedBytesPerRow: 16,
	}
	fmt.Println("ratio   CostU(s)    update plan   CostD(s)    delete plan")
	for _, r := range []float64{0.001, 0.01, 0.05, 0.10, 0.20, 0.35, 0.50} {
		w := base
		w.Ratio = r
		pu, cu := model.ChooseUpdate(w)
		pd, cd := model.ChooseDelete(w)
		fmt.Printf("%5.1f%%  %9.2f   %-11s %9.2f   %s\n", 100*r, cu, pu, cd, pd)
	}

	fmt.Printf("\nupdate crossover α* = %.1f%%\n", 100*model.UpdateCrossover(base))
	fmt.Printf("delete crossover β* = %.1f%%\n", 100*model.DeleteCrossover(base))

	// More following reads make UNION READ merging costlier, pushing
	// the crossover down — the paper's closing point about k.
	fmt.Println("\nk (reads after DML) vs update crossover:")
	for _, k := range []float64{0, 1, 5, 20, 50} {
		w := base
		w.FollowingReads = k
		fmt.Printf("  k=%-3.0f  α* = %5.1f%%\n", k, 100*model.UpdateCrossover(w))
	}
}
