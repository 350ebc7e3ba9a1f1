// Command wanify-train runs WANify's offline module (§4.1.1): the
// Bandwidth Analyzer collects labeled monitoring sessions on the
// simulated testbed, and the WAN Prediction Model (Random Forest) is
// trained and evaluated.
//
//	wanify-train                         # paper-like configuration
//	wanify-train -sessions 40 -trees 100 # heavier training run
//	wanify-train -out model.gob          # persist the trained model
//	wanify-train -load model.gob         # evaluate a saved model
//
// Models written with -out are reloaded by wanify-sim/wanify-bench
// via their -model flags, so online runs skip retraining — the paper's
// deployment shape, where the offline module trains once and the
// online module only predicts.
//
// The tool prints dataset statistics, train/test accuracy at the paper's
// 100 Mbps significance threshold (the metric behind its "98.51%
// training accuracy"), RMSE/R², per-feature importance (Table 3), and
// the priced collection effort.
package main

import (
	"flag"
	"fmt"
	"log"

	"github.com/wanify/wanify/internal/cost"
	"github.com/wanify/wanify/internal/ml/dataset"
	"github.com/wanify/wanify/internal/ml/rf"
	"github.com/wanify/wanify/internal/predict"
	"github.com/wanify/wanify/internal/simrand"
	"github.com/wanify/wanify/internal/stats"
)

func main() {
	var (
		seed     = flag.Uint64("seed", 1, "simulation seed")
		sessions = flag.Int("sessions", 15, "monitoring sessions per cluster size")
		trees    = flag.Int("trees", 100, "Random Forest estimators (paper: 100)")
		outPath  = flag.String("out", "", "write the trained model to this file (gob)")
		loadPath = flag.String("load", "", "evaluate an existing model instead of training")
	)
	flag.Parse()

	gen := dataset.GenConfig{
		Sizes:        []int{2, 3, 4, 5, 6, 7, 8},
		DrawsPerSize: *sessions,
		Seed:         *seed,
	}
	fmt.Printf("collecting %d sessions per size over cluster sizes %v...\n", gen.DrawsPerSize, gen.Sizes)
	ds, rep := dataset.Generate(gen)
	fmt.Printf("dataset: %d labeled pairs, label SD %.0f Mbps (paper: ~184)\n",
		ds.Len(), stats.StdDev(ds.Y))
	fmt.Printf("collection effort: %.0f s simulated, %.1f GB probe traffic, %.0f VM-seconds\n",
		rep.ElapsedS, rep.BytesTransferred/1e9, rep.VMSeconds)
	// Price the collection like Table 2 does.
	meanMbps := rep.BytesTransferred * 8 / 1e6 / rep.ElapsedS / 8 // per instance, 8-DC worst case
	collectUSD := cost.TrainingCostUSD(cost.TrainingParams{
		Rows: ds.Len(), N: 8, SessionS: 21, SessionMbps: meanMbps,
		Spec: cost.DefaultTrainingParams(8).Spec, NetPerGB: 0.02,
	})
	fmt.Printf("collection cost at Table 2 pricing: ~$%.0f (paper spent ~$150 total)\n\n", collectUSD)

	splitRng := simrand.Derive(*seed, "train-test-split")
	train, test := ds.Split(0.2, splitRng)

	var model *predict.Model
	if *loadPath != "" {
		var err error
		model, err = predict.LoadFile(*loadPath)
		if err != nil {
			log.Fatalf("load model: %v", err)
		}
		forest := model.Forest()
		fmt.Printf("loaded model: %d trees, %d features\n", forest.NumTrees(), forest.NumFeatures())
	} else {
		var err error
		model, err = predict.Train(train, predict.TrainConfig{
			Forest: rf.Config{NumTrees: *trees, Seed: *seed},
		})
		if err != nil {
			log.Fatalf("train: %v", err)
		}
		fmt.Printf("trained Random Forest: %d trees, OOB RMSE %.1f Mbps\n",
			model.Forest().NumTrees(), model.Forest().OOBRMSE())
	}

	trainAcc, trainRMSE, _ := model.Accuracy(train)
	testAcc, testRMSE, testR2 := model.Accuracy(test)
	fmt.Printf("train: accuracy %.2f%% (paper: 98.51%%), RMSE %.1f Mbps\n", trainAcc*100, trainRMSE)
	fmt.Printf("test:  accuracy %.2f%%, RMSE %.1f Mbps, R² %.3f\n", testAcc*100, testRMSE, testR2)

	fmt.Println("\nfeature importance (Table 3):")
	for i, imp := range model.Forest().FeatureImportance() {
		fmt.Printf("  %-8s %.3f\n", dataset.FeatureNames[i], imp)
	}

	if *outPath != "" {
		if err := model.SaveFile(*outPath); err != nil {
			log.Fatalf("save: %v", err)
		}
		fmt.Printf("\nmodel written to %s (reuse with wanify-sim/wanify-bench -model)\n", *outPath)
	}
}
