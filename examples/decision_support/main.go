// Decision support: the paper's motivating scenario end to end. The
// example sweeps the fraction of "big" departments and, at every point,
// executes three strategies for the Fig 1 query:
//
//   - the original query (no magic, no filter join),
//   - the textbook magic-sets rewriting (always applied, heuristic SIPS),
//   - the cost-based optimizer with the Filter Join as a join method.
//
// The output shows the crossover the paper's introduction describes:
// magic wins by a large factor when few departments qualify, loses when
// most do, and the cost-based plan tracks the better of the two.
package main

import (
	"fmt"
	"log"

	"filterjoin/internal/core"
	"filterjoin/internal/cost"
	"filterjoin/internal/datagen"
	"filterjoin/internal/exec"
	"filterjoin/internal/magic"
	"filterjoin/internal/opt"
	"filterjoin/internal/query"
)

func measure(o *opt.Optimizer, b *query.Block, model cost.Model) (float64, int) {
	p, err := o.OptimizeBlock(b)
	if err != nil {
		log.Fatal(err)
	}
	ctx := exec.NewContext()
	n, err := exec.Count(ctx, p.Make())
	if err != nil {
		log.Fatal(err)
	}
	return model.Total(*ctx.Counter), n
}

func main() {
	model := cost.DefaultModel()
	fmt.Println("fraction of big departments vs measured execution cost (page-I/O units)")
	fmt.Printf("%-8s  %10s  %12s  %12s  %s\n", "big %", "original", "always-magic", "cost-based", "rows")
	for _, frac := range []float64{0.005, 0.02, 0.05, 0.1, 0.2, 0.5, 1.0} {
		p := datagen.DefaultFig1()
		p.BigFrac = frac
		cat, err := datagen.Fig1Catalog(p)
		if err != nil {
			log.Fatal(err)
		}

		oPlain := opt.New(cat, model)
		costPlain, rows := measure(oPlain, datagen.Fig1Query(), model)

		rw, err := magic.Rewrite(cat, datagen.Fig1Query(), 2, []int{0, 1})
		if err != nil {
			log.Fatal(err)
		}
		oMagic := opt.New(rw.Cat, model)
		costMagic, _ := measure(oMagic, rw.Final, model)

		oFJ := opt.New(cat, model)
		oFJ.Register(core.NewMethod(core.Options{}))
		costFJ, _ := measure(oFJ, datagen.Fig1Query(), model)

		fmt.Printf("%-8.1f  %10.1f  %12.1f  %12.1f  %d\n",
			frac*100, costPlain, costMagic, costFJ, rows)
	}
	fmt.Println("\nThe cost-based column should track min(original, always-magic) everywhere.")
}
