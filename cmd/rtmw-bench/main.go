// Command rtmw-bench regenerates the paper's evaluation artifacts:
//
//	rtmw-bench table1            Table 1 criteria → strategy mapping
//	rtmw-bench figure5           accepted utilization ratio, balanced workloads
//	rtmw-bench figure6           accepted utilization ratio, imbalanced workloads
//	rtmw-bench overhead          Figure 7/8 service overhead table (live, TCP)
//	rtmw-bench ablation          AUB vs deferrable-server admission (Section 2)
//	rtmw-bench scale             large-scenario throughput sweep (pooled DES core)
//	rtmw-bench autopilot         closed-loop controller vs every static combination on regime-change scenarios
//	rtmw-bench scenario          declarative scenario spec against sim and/or live bindings;
//	                             strategy swaps, task churn and node loss are scenarios
//	rtmw-bench all               everything above (except scenario, which needs a spec)
//
// Figure runs accept -sets and -horizon; overhead accepts -duration and
// -pings; the scale sweep accepts -points (PROCSxTASKS pairs) and -horizon
// (defaulting to 2s of virtual time — its workloads use shorter deadlines
// than the figures). The figure and ablation sweeps fan their independent
// trials over -parallel workers (results are bit-identical to a serial run).
// Output goes to stdout; add -csv for machine-readable series or -json for
// structured documents. With -json, the JSON documents are the only stdout
// output (the human-readable tables move to stderr), so stdout redirects to
// a valid .json file.
//
// The scenario subcommand takes its own flags after the subcommand name:
//
//	rtmw-bench scenario -spec scenarios/flashcrowd.json -binding both
//	rtmw-bench scenario -spec scenarios/tenant-churn.json -binding sim -record run.jsonl
//	rtmw-bench scenario -replay run.jsonl -json
//
// It exits non-zero when any binding violates the spec's invariant block.
// Mid-run reconfiguration, open-world churn and kill-a-node failover are
// checked-in specs (scenarios/reconfig-storm.json, tenant-churn.json,
// node-loss.json), not subcommands of their own. A missing or unknown
// subcommand prints usage and exits 2, so a misspelled CI invocation fails
// instead of silently no-opping.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"time"

	"repro/internal/configengine"
	"repro/internal/experiments"
	"repro/internal/scenario"
)

// errUsage marks invocation errors (bad subcommand, bad flags): main prints
// usage and exits 2, distinguishing caller mistakes from run failures.
var errUsage = errors.New("usage")

func main() {
	if err := run(); err != nil {
		if errors.Is(err, errUsage) {
			fmt.Fprintln(os.Stderr, err)
			flag.Usage()
			os.Exit(2)
		}
		log.Fatal(err)
	}
}

func run() error {
	var (
		sets     = flag.Int("sets", 10, "random task sets per figure point")
		horizon  = flag.Duration("horizon", 5*time.Minute, "virtual workload duration per run")
		duration = flag.Duration("duration", 5*time.Second, "live overhead run duration")
		pings    = flag.Int("pings", 1000, "event round trips for the communication-delay estimate, spread over -duration")
		parallel = flag.Int("parallel", 1, "concurrent trial workers for figure/ablation sweeps (0 = one per CPU)")
		points   = flag.String("points", "5x100,50x10000,200x50000", "scale sweep points as PROCSxTASKS pairs")
		noLive   = flag.Bool("nolive", false, "autopilot: skip the live-cluster leg")
		csv      = flag.Bool("csv", false, "also print CSV series for figures")
		jsonOut  = flag.Bool("json", false, "also print JSON documents for figures, the ablation, and the scale sweep")
	)
	flag.Parse()
	cmd := flag.Arg(0)
	if cmd == "" {
		return fmt.Errorf("%w: missing subcommand: table1 | figure5 | figure6 | overhead | ablation | scale | autopilot | scenario | all", errUsage)
	}
	horizonSet := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "horizon" {
			horizonSet = true
		}
	})

	workers := *parallel
	if workers < 1 {
		workers = experiments.ResolveWorkers(workers)
	}
	figOpts := experiments.FigureOptions{Sets: *sets, Horizon: *horizon, Workers: workers}
	ovOpts := experiments.OverheadOptions{Duration: *duration, PingCount: *pings}

	// With -json, human-readable tables move to stderr so stdout stays a
	// valid JSON stream (the CI perf-trajectory artifact redirects it).
	tableW := io.Writer(os.Stdout)
	if *jsonOut {
		tableW = os.Stderr
	}

	renderFigure := func(name, title string, run func(experiments.FigureOptions) ([]experiments.ComboResult, error)) error {
		results, err := run(figOpts)
		if err != nil {
			return err
		}
		fmt.Fprintln(tableW, experiments.RenderFigure(title, results))
		if *csv {
			fmt.Fprintln(tableW, experiments.RenderCSV(results))
		}
		if *jsonOut {
			doc, err := experiments.RenderFigureJSON(name, results)
			if err != nil {
				return err
			}
			fmt.Println(doc)
		}
		return nil
	}
	runFigure5 := func() error {
		return renderFigure("figure5",
			fmt.Sprintf("Figure 5: accepted utilization ratio, random balanced workloads (%d sets, %v, %d workers)", *sets, *horizon, workers),
			experiments.RunFigure5)
	}
	runFigure6 := func() error {
		return renderFigure("figure6",
			fmt.Sprintf("Figure 6: accepted utilization ratio, imbalanced workloads (%d sets, %v, %d workers)", *sets, *horizon, workers),
			experiments.RunFigure6)
	}
	runOverhead := func() error {
		fmt.Fprintf(os.Stderr, "running live overhead measurement (%v, %d pings spread over it)...\n", *duration, *pings)
		rep, err := experiments.RunOverhead(ovOpts)
		if err != nil {
			return err
		}
		fmt.Println(experiments.RenderOverhead(rep))
		return nil
	}
	runTable1 := func() error {
		fmt.Println(configengine.RenderTable1())
		fmt.Println("Valid strategy combinations (Figure 2): 15 of 18; AC-per-task with IR-per-job is contradictory.")
		return nil
	}
	runScale := func() error {
		pts, err := experiments.ParseScalePoints(*points)
		if err != nil {
			return err
		}
		opts := experiments.ScaleOptions{Points: pts}
		if horizonSet {
			opts.Horizon = *horizon
		}
		results, err := experiments.RunScale(opts)
		if err != nil {
			return err
		}
		fmt.Fprintln(tableW, experiments.RenderScale(
			fmt.Sprintf("Scale sweep: simulated middleware throughput by platform size (points %s)", *points), results))
		if *jsonOut {
			doc, err := experiments.RenderScaleJSON(results)
			if err != nil {
				return err
			}
			fmt.Println(doc)
		}
		return nil
	}
	runAblation := func() error {
		results, err := experiments.RunAblationAUBvsDS(experiments.AblationOptions{Seeds: 10, Workers: workers})
		if err != nil {
			return err
		}
		fmt.Fprintln(tableW, experiments.RenderAblation(results))
		if *jsonOut {
			doc, err := experiments.RenderAblationJSON(results)
			if err != nil {
				return err
			}
			fmt.Println(doc)
		}
		return nil
	}

	runAutopilot := func() error {
		opts := experiments.AutopilotOptions{Workers: workers, Live: !*noLive}
		if !*noLive {
			fmt.Fprintln(os.Stderr, "running autopilot sweep (sim statics + controller, plus live leg)...")
		}
		rep, err := experiments.RunAutopilot(opts)
		if err != nil {
			return err
		}
		fmt.Fprintln(tableW, experiments.RenderAutopilot(rep))
		if *jsonOut {
			doc, err := experiments.RenderAutopilotJSON(rep)
			if err != nil {
				return err
			}
			fmt.Println(doc)
		}
		if !experiments.AutopilotPassed(rep) {
			return fmt.Errorf("autopilot failed acceptance: controller must beat every static combination on >= 2 scenarios with clean invariants")
		}
		return nil
	}

	runScenario := func() error {
		fs := flag.NewFlagSet("scenario", flag.ContinueOnError)
		specPath := fs.String("spec", "", "scenario spec file (JSON)")
		bindingF := fs.String("binding", "both", "binding(s) to run: sim | live | both")
		record := fs.String("record", "", "record the run to a journal file (single binding only)")
		replay := fs.String("replay", "", "replay a journal file in the sim instead of running a spec")
		timescale := fs.Float64("timescale", 0, "live wall-clock compression factor (0 = the spec's)")
		if err := fs.Parse(flag.Args()[1:]); err != nil {
			return fmt.Errorf("%w: scenario: %v", errUsage, err)
		}
		if *replay != "" {
			data, err := os.ReadFile(*replay)
			if err != nil {
				return err
			}
			j, err := scenario.DecodeJournal(data)
			if err != nil {
				return err
			}
			rr, err := scenario.Replay(j)
			if err != nil {
				return err
			}
			fmt.Fprintf(tableW, "Replayed %q (%s journal): arrived %d, released %d, completed %d, missed %d, lost %d, ratio %.3f\n",
				rr.Scenario, j.Header.Binding, rr.Arrived, rr.Released, rr.Completed, rr.Missed, rr.Lost, rr.Ratio)
			if *jsonOut {
				fmt.Println(string(rr.MetricsJSON))
			}
			return nil
		}
		if *specPath == "" {
			return fmt.Errorf("%w: scenario: -spec or -replay is required", errUsage)
		}
		data, err := os.ReadFile(*specPath)
		if err != nil {
			return err
		}
		s, err := scenario.Parse(data)
		if err != nil {
			return err
		}
		var bindings []string
		switch *bindingF {
		case "sim":
			bindings = []string{scenario.BindingSim}
		case "live":
			bindings = []string{scenario.BindingLive}
		case "both":
			bindings = []string{scenario.BindingSim, scenario.BindingLive}
		default:
			return fmt.Errorf("%w: scenario: -binding must be sim, live or both, got %q", errUsage, *bindingF)
		}
		rep, err := experiments.RunScenario(experiments.ScenarioOptions{
			Spec: s, Bindings: bindings, TimeScale: *timescale, RecordPath: *record,
		})
		if err != nil {
			return err
		}
		fmt.Fprintln(tableW, experiments.RenderScenario(rep))
		if *jsonOut {
			doc, err := experiments.RenderScenarioJSON(rep)
			if err != nil {
				return err
			}
			fmt.Println(doc)
		}
		if !rep.Passed() {
			return fmt.Errorf("scenario %q violated its invariant block", s.Name)
		}
		return nil
	}

	switch cmd {
	case "table1":
		return runTable1()
	case "figure5":
		return runFigure5()
	case "figure6":
		return runFigure6()
	case "overhead":
		return runOverhead()
	case "ablation":
		return runAblation()
	case "scale":
		return runScale()
	case "autopilot":
		return runAutopilot()
	case "scenario":
		return runScenario()
	case "all":
		for _, f := range []func() error{runTable1, runFigure5, runFigure6, runOverhead, runAblation, runScale, runAutopilot} {
			if err := f(); err != nil {
				return err
			}
		}
		return nil
	default:
		return fmt.Errorf("%w: unknown subcommand %q", errUsage, cmd)
	}
}
