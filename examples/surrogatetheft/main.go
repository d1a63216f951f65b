// Surrogate theft with power information (paper Case 2): the attacker
// queries the crossbar-hosted oracle for outputs AND measures power, then
// trains a surrogate with the joint loss L = L_out + λ·L_power (Eq. 9).
// FGSM examples crafted on the surrogate transfer to the oracle more
// effectively than without the power term at moderate query budgets.
//
// Run with:
//
//	go run ./examples/surrogatetheft
package main

import (
	"fmt"
	"log"

	"xbarsec/internal/attack"
	"xbarsec/internal/crossbar"
	"xbarsec/internal/dataset"
	"xbarsec/internal/nn"
	"xbarsec/internal/oracle"
	"xbarsec/internal/rng"
	"xbarsec/internal/surrogate"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("surrogatetheft: ")
	src := rng.New(11)

	train, test, err := dataset.Load(dataset.MNIST, src.Split("data"), dataset.LoadOptions{TrainN: 900, TestN: 300})
	if err != nil {
		log.Fatal(err)
	}
	victim, _, err := nn.TrainNew(train, nn.ActLinear, nn.LossMSE, nn.TrainConfig{
		Epochs: 30, BatchSize: 32, LearningRate: 0.05, Momentum: 0.9, ZeroInit: true,
	}, src.Split("train"))
	if err != nil {
		log.Fatal(err)
	}
	hw, err := crossbar.NewNetwork(victim, crossbar.DefaultDeviceConfig(), nil)
	if err != nil {
		log.Fatal(err)
	}
	orc, err := oracle.New(hw, oracle.Config{Mode: oracle.RawOutput, MeasurePower: true})
	if err != nil {
		log.Fatal(err)
	}
	clean, err := orc.AccuracyOn(test)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("oracle clean test accuracy: %.3f\n\n", clean)

	const queries = 200
	qs, err := oracle.Collect(orc, train, queries, src.Split("collect"))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("collected %d queries (outputs + power)\n\n", qs.Len())

	oh := test.OneHot()
	evaluate := func(model *surrogate.Model) (surAcc, advAcc float64) {
		surAcc = model.Accuracy(test.X, test.Labels)
		correct := 0
		for i := 0; i < test.Len(); i++ {
			adv, err := attack.FGSM(model.Net, test.X.Row(i), oh.Row(i), 0.1)
			if err != nil {
				log.Fatal(err)
			}
			pred, err := hw.Predict(adv)
			if err != nil {
				log.Fatal(err)
			}
			if pred == test.Labels[i] {
				correct++
			}
		}
		return surAcc, float64(correct) / float64(test.Len())
	}

	fmt.Println("λ (power weight)  surrogate acc  oracle acc under FGSM(0.1)")
	for _, lambda := range []float64{0, 0.002, 0.004, 0.01} {
		cfg := surrogate.DefaultConfig()
		cfg.Lambda = lambda
		model, err := surrogate.Train(qs, cfg, src.SplitN("fit", int(lambda*10000)))
		if err != nil {
			log.Fatal(err)
		}
		surAcc, advAcc := evaluate(model)
		fmt.Printf("%-16.3f  %-13.3f  %.3f\n", lambda, surAcc, advAcc)
	}

	// The algebraic bound: with Q >= N raw queries the weights fall out
	// of a pseudoinverse and power adds nothing (paper §IV).
	big, err := oracle.Collect(orc, train, train.Len(), src.Split("big"))
	if err != nil {
		log.Fatal(err)
	}
	exact, err := surrogate.AlgebraicExtract(big)
	if err != nil {
		log.Fatal(err)
	}
	diff := exact.W.Clone()
	diff.SubMatrix(victim.W)
	fmt.Printf("\nwith %d >= %d queries, W = U†Ŷ recovers the weights exactly (max error %.2e)\n",
		big.Len(), victim.Inputs(), diff.MaxAbs())
}
