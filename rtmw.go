// Package rtmw is a reconfigurable real-time middleware for distributed
// cyber-physical systems with aperiodic and periodic events — a Go
// reproduction of Zhang, Gill, Lu, "Reconfigurable Real-Time Middleware for
// Distributed Cyber-Physical Systems with Aperiodic Events" (WUCSE-2008-5 /
// ICDCS 2008).
//
// The middleware provides three configurable services for end-to-end task
// management under the aperiodic utilization bound (AUB) analysis:
//
//   - Admission control (AC): per-task or per-job AUB admission tests;
//   - Idle resetting (IR): none, per-task (aperiodic subjobs), or per-job
//     (aperiodic + periodic subjobs) removal of completed subjobs'
//     synthetic utilization when a processor idles;
//   - Load balancing (LB): none, per-task, or per-job assignment of
//     subtasks to the least-utilized replica.
//
// A front-end configuration engine maps four application-characteristic
// questions (job skipping, replication, state persistence, overhead
// tolerance) to a valid strategy combination, rejects the contradictory
// AC-per-task/IR-per-job configurations, and generates XML deployment plans
// executed over live nodes.
//
// Two bindings run the same policies:
//
//   - a deterministic discrete-event simulation for schedulability
//     experiments (Figures 5 and 6 of the paper), and
//   - a live binding over a TCP object request broker and federated event
//     channels for real deployments and overhead measurement (Figure 8).
//
// This package is a facade over the internal implementation packages; see
// README.md for a quickstart and DESIGN.md for the layer architecture and
// the admission ledger's index design.
package rtmw

import (
	"time"

	"repro/internal/autopilot"
	"repro/internal/cluster"
	"repro/internal/configengine"
	"repro/internal/core"
	"repro/internal/deploy"
	"repro/internal/experiments"
	"repro/internal/scenario"
	"repro/internal/sched"
	"repro/internal/spec"
	"repro/internal/workload"
)

// Task model re-exports.
type (
	// Task is an end-to-end task: a chain of subtasks with a deadline.
	Task = sched.Task
	// Subtask is one stage of an end-to-end task.
	Subtask = sched.Subtask
	// TaskKind distinguishes periodic from aperiodic tasks.
	TaskKind = sched.TaskKind
	// JobRef identifies one release of a task.
	JobRef = sched.JobRef
)

// Task kinds.
const (
	Periodic  = sched.Periodic
	Aperiodic = sched.Aperiodic
)

// Strategy configuration re-exports.
type (
	// Strategy is one service axis setting (N / T / J).
	Strategy = core.Strategy
	// Config is an AC/IR/LB strategy combination such as "J_T_N".
	Config = core.Config
)

// Strategy values.
const (
	StrategyNone    = core.StrategyNone
	StrategyPerTask = core.StrategyPerTask
	StrategyPerJob  = core.StrategyPerJob
)

// ParseConfig parses an "AC_IR_LB" tuple such as "J_T_N" and validates it.
func ParseConfig(s string) (Config, error) { return core.ParseConfig(s) }

// AllCombinations returns the 15 valid strategy combinations in the paper's
// figure order.
func AllCombinations() []Config { return core.AllCombinations() }

// AssignEDMSPriorities assigns End-to-end Deadline Monotonic priorities.
func AssignEDMSPriorities(tasks []*Task) { sched.AssignEDMSPriorities(tasks) }

// Binding is the open-world surface both middleware bindings implement: the
// deterministic simulation (*SimSystem) and the live cluster (*Cluster).
//
// Ingestion is admission-aware: Submit injects one job arrival and returns a
// typed Admission (job number plus the decision state — per-task cached
// decisions resolve synchronously, everything else is Pending until the
// decision round trip completes), and SubmitBatch injects bulk arrivals,
// amortizing transport round trips on the live binding.
//
// The task set is dynamic: AddTasks registers tasks on the running binding
// (EDMS priorities re-assigned over the union, AUB-ledger admission from the
// next arrival; the live binding installs the new subtask components and
// federation routes through a configuration-engine delta under the quiesce
// protocol) and RemoveTasks withdraws tasks, releasing their remaining
// ledger contributions without losing a single already-admitted job.
//
// Watch opens an ordered stream of typed lifecycle events (admissions,
// rejections, completions, deadline misses, task-set changes,
// reconfigurations) — the push-based replacement for Snapshot polling.
// Snapshot remains the aggregate point-in-time view.
//
// Reconfigure runs the epoch-versioned two-phase strategy swap — quiesce
// admission, drain in-flight decisions, swap the AC/IR/LB strategy objects,
// rebase the admission ledger, resume — without dropping a single admitted
// job; invalid target combinations (the configengine feasibility rules,
// e.g. AC-per-task with IR-per-job) are rejected without disturbing the
// running configuration. On the simulation binding a mid-run Reconfigure
// completes when virtual time passes the quiesce window; use
// (*SimSystem).ScheduleReconfig to build strategy schedules at exact
// virtual times, and (*SimSystem).At to drive Submit/AddTasks/RemoveTasks
// at exact virtual times. Stop retires the binding and closes every watch
// stream.
//
// Failures are typed: ErrStopped, ErrUnknownTask and ErrTaskExists are
// discriminated with errors.Is.
type Binding interface {
	Submit(taskID string) (Admission, error)
	SubmitBatch(taskIDs []string) ([]Admission, error)
	AddTasks(tasks []*Task) error
	RemoveTasks(ids []string) error
	Watch(opts WatchOptions) (*Watch, error)
	Snapshot() BindingSnapshot
	Reconfigure(cfg Config) (*ReconfigReport, error)
	Stop() error
}

// Binding surface re-exports.
type (
	// BindingSnapshot is a point-in-time view of a running binding.
	BindingSnapshot = core.BindingSnapshot
	// ReconfigReport describes one completed reconfiguration transaction.
	ReconfigReport = core.ReconfigReport
	// Admission is the typed outcome of one submitted arrival.
	Admission = core.Admission
	// AdmissionOutcome is the resolution state of an Admission.
	AdmissionOutcome = core.AdmissionOutcome
	// Watch is an ordered subscription of lifecycle events.
	Watch = core.WatchStream
	// WatchOptions filters and sizes a watch subscription.
	WatchOptions = core.WatchOptions
	// WatchEvent is one typed lifecycle event.
	WatchEvent = core.WatchEvent
	// WatchKind labels a lifecycle event.
	WatchKind = core.WatchKind
)

// Admission outcomes.
const (
	AdmissionPending  = core.AdmissionPending
	AdmissionAccepted = core.AdmissionAccepted
	AdmissionRejected = core.AdmissionRejected
)

// Watch event kinds.
const (
	WatchAdmitted     = core.WatchAdmitted
	WatchRejected     = core.WatchRejected
	WatchCompleted    = core.WatchCompleted
	WatchDeadlineMiss = core.WatchDeadlineMiss
	WatchTaskAdded    = core.WatchTaskAdded
	WatchTaskRemoved  = core.WatchTaskRemoved
	WatchReconfigured = core.WatchReconfigured
)

// Typed Binding failures, discriminated with errors.Is.
var (
	// ErrStopped marks an operation on a stopped binding.
	ErrStopped = core.ErrStopped
	// ErrUnknownTask marks an operation naming a task the binding does not
	// currently serve.
	ErrUnknownTask = core.ErrUnknownTask
	// ErrTaskExists marks an AddTasks call re-registering a served task ID.
	ErrTaskExists = core.ErrTaskExists
)

// Compile-time proof that both bindings expose the unified surface.
var (
	_ Binding = (*SimSystem)(nil)
	_ Binding = (*Cluster)(nil)
)

// Simulation re-exports: the deterministic virtual-time binding.
type (
	// SimConfig parameterizes a simulation run.
	SimConfig = core.SimConfig
	// SimSystem is a configured simulation.
	SimSystem = core.SimSystem
	// Metrics is a run's accounting; its AcceptedUtilizationRatio is the
	// paper's headline metric.
	Metrics = core.Metrics
)

// NewSimBinding builds the simulation binding of the middleware over the
// tasks. Run executes the workload; ScheduleReconfig swaps strategies at a
// virtual time mid-run; At drives open-world operations (Submit, AddTasks,
// RemoveTasks) at exact virtual times.
func NewSimBinding(cfg SimConfig, tasks []*Task) (*SimSystem, error) {
	return core.NewSimSystem(cfg, tasks)
}

// Workload specification re-exports.
type (
	// Workload is the JSON workload specification file model.
	Workload = spec.Workload
	// TaskSpec describes one task in a workload specification.
	TaskSpec = spec.TaskSpec
	// SubtaskSpec describes one stage in a workload specification.
	SubtaskSpec = spec.SubtaskSpec
)

// ParseWorkload decodes and validates a JSON workload specification.
func ParseWorkload(data []byte) (*Workload, error) { return spec.Parse(data) }

// WorkloadFromTasks builds a specification from model tasks.
func WorkloadFromTasks(name string, processors int, tasks []*Task) *Workload {
	return spec.FromTasks(name, processors, tasks)
}

// Random workload generation re-exports (the paper's Section 7 setups).
type WorkloadParams = workload.Params

// Workload parameter constructors for the paper's experiments.
var (
	Figure5Params  = workload.Figure5Params
	Figure6Params  = workload.Figure6Params
	OverheadParams = workload.OverheadParams
)

// GenerateWorkload produces a random task set per the parameters.
func GenerateWorkload(p WorkloadParams) ([]*Task, error) { return workload.Generate(p) }

// ScaleWorkload multiplies every duration in the tasks by factor, keeping
// synthetic utilizations invariant.
func ScaleWorkload(tasks []*Task, factor float64) []*Task { return workload.Scale(tasks, factor) }

// Configuration engine re-exports.
type (
	// Answers are the developer's responses to the four questions of the
	// front-end configuration engine.
	Answers = configengine.Answers
	// Tolerance is the overhead-tolerance answer (N / PT / PJ).
	Tolerance = configengine.Tolerance
	// MappingResult is a strategy selection with its reasoning.
	MappingResult = configengine.Result
	// DeploymentPlan is an XML deployment plan.
	DeploymentPlan = deploy.Plan
	// DeploymentNode declares one node in a plan.
	DeploymentNode = deploy.Node
)

// Overhead tolerance values.
const (
	ToleranceNone    = configengine.ToleranceNone
	TolerancePerTask = configengine.TolerancePerTask
	TolerancePerJob  = configengine.TolerancePerJob
)

// MapAnswers applies Table 1 to select a valid strategy combination.
func MapAnswers(a Answers) MappingResult { return configengine.MapAnswers(a) }

// DefaultAnswers returns the engine's defaults (everything per task).
func DefaultAnswers() Answers { return configengine.DefaultAnswers() }

// GeneratePlan emits the XML deployment plan for a workload under a
// strategy combination.
func GeneratePlan(name string, w *Workload, cfg Config, manager DeploymentNode, apps []DeploymentNode) (*DeploymentPlan, error) {
	return configengine.GeneratePlan(name, w, cfg, manager, apps)
}

// ParsePlan decodes an XML deployment plan.
func ParsePlan(data []byte) (*DeploymentPlan, error) { return deploy.Parse(data) }

// Live cluster re-exports: the real-transport binding.
type (
	// ClusterOptions configures an in-process live deployment.
	ClusterOptions = cluster.Options
	// Cluster is a running live deployment (manager + application nodes on
	// TCP loopback, deployed through the configuration engine and plan
	// launcher).
	Cluster = cluster.Cluster
)

// StartLiveBinding deploys and activates the live cluster binding: manager
// plus application nodes on TCP loopback, deployed through the
// configuration engine, XML plan and plan launcher. The returned Cluster
// implements the unified Binding surface, including live Reconfigure and
// the open-world AddTasks/RemoveTasks deltas.
func StartLiveBinding(opts ClusterOptions) (*Cluster, error) { return cluster.Start(opts) }

// Reconfiguration-delta re-exports: the configuration engine emits minimal
// deltas against a running deployment's plan, and the plan launcher
// executes them (rtmw-config's reconfigure subcommand is the CLI form).
type (
	// ReconfigDeltaPlan is a reconfiguration transaction for a running
	// deployment.
	ReconfigDeltaPlan = deploy.Delta
	// ReconfigOutcome reports an executed reconfiguration transaction.
	ReconfigOutcome = deploy.ReconfigOutcome
)

// ReconfigDelta computes the minimal reconfiguration transaction that moves
// the running deployment described by plan to the target combination.
func ReconfigDelta(plan *DeploymentPlan, to Config) (*ReconfigDeltaPlan, error) {
	return configengine.ReconfigDelta(plan, to)
}

// AddTasksDelta computes the reconfiguration transaction that registers new
// tasks on the running deployment described by plan: the union workload with
// re-assigned EDMS priorities, the added tasks' subtask component installs,
// and the new federation routes, executed under the quiesce protocol.
func AddTasksDelta(plan *DeploymentPlan, add []*Task) (*ReconfigDeltaPlan, error) {
	return configengine.AddTasksDelta(plan, add)
}

// RemoveTasksDelta computes the reconfiguration transaction that withdraws
// tasks from the running deployment described by plan.
func RemoveTasksDelta(plan *DeploymentPlan, ids []string) (*ReconfigDeltaPlan, error) {
	return configengine.RemoveTasksDelta(plan, ids)
}

// Experiment re-exports: regenerate the paper's tables and figures. The
// figure and ablation runners fan their independent (combo, set) / seed
// trials over a bounded worker pool when Workers is set; results are
// bit-identical to a serial run.
type (
	// FigureOptions parameterizes the Figure 5/6 experiments.
	FigureOptions = experiments.FigureOptions
	// ComboResult is one strategy combination's accepted utilization ratio.
	ComboResult = experiments.ComboResult
	// OverheadOptions parameterizes the Figure 7/8 overhead measurement.
	OverheadOptions = experiments.OverheadOptions
	// OverheadReport is the measured overhead accounting.
	OverheadReport = experiments.OverheadReport
	// AblationOptions parameterizes the AUB-vs-deferrable-server ablation.
	AblationOptions = experiments.AblationOptions
	// AblationResult is one admission technique's outcome in the ablation.
	AblationResult = experiments.AblationResult
	// ScaleOptions parameterizes the large-scenario throughput sweep over
	// the pooled simulation core.
	ScaleOptions = experiments.ScaleOptions
	// ScalePoint is one (processors, tasks) configuration of the sweep.
	ScalePoint = experiments.ScalePoint
	// ScaleResult is one scale point's virtual workload and wall-clock
	// throughput.
	ScaleResult = experiments.ScaleResult
)

// Experiment runners and renderers.
var (
	RunFigure5         = experiments.RunFigure5
	RunFigure6         = experiments.RunFigure6
	RunOverhead        = experiments.RunOverhead
	RunAblationAUBvsDS = experiments.RunAblationAUBvsDS
	RunScale           = experiments.RunScale
	RenderScale        = experiments.RenderScale
	RenderScaleJSON    = experiments.RenderScaleJSON
	ParseScalePoints   = experiments.ParseScalePoints
	// ScaleWorkloadParams builds the large-scenario workload parameters for
	// one (procs, tasks, set) scale point.
	ScaleWorkloadParams = workload.ScaleParams
	RenderFigure        = experiments.RenderFigure
	RenderCSV           = experiments.RenderCSV
	RenderFigureJSON    = experiments.RenderFigureJSON
	RenderAblation      = experiments.RenderAblation
	RenderAblationJSON  = experiments.RenderAblationJSON
	RenderOverhead      = experiments.RenderOverhead
	RenderTable1        = configengine.RenderTable1
	// ResolveWorkers normalizes a Workers option (values below 1 select one
	// worker per CPU).
	ResolveWorkers = experiments.ResolveWorkers
)

// Scenario engine re-exports: declarative JSON specs composing arrival
// shapes, mid-run injections and expected-invariant blocks, executed
// against either binding from one file, with deterministic record/replay.
type (
	// Scenario is a parsed declarative scenario specification.
	Scenario = scenario.Spec
	// ScenarioWorkloadRef selects the scenario's initial workload (a
	// Figure 5/6 generated set or an inline specification).
	ScenarioWorkloadRef = scenario.WorkloadRef
	// ScenarioArrivalBlock binds an arrival shape to a set of tasks.
	ScenarioArrivalBlock = scenario.ArrivalBlock
	// ScenarioShape is the JSON form of an arrival shape.
	ScenarioShape = scenario.ShapeSpec
	// ScenarioInjection is one mid-run structural operation.
	ScenarioInjection = scenario.Injection
	// ScenarioInvariants is a spec's expected-invariant block.
	ScenarioInvariants = scenario.Invariants
	// ScenarioResult is one binding's execution outcome and verdict.
	ScenarioResult = scenario.Result
	// ScenarioJournal is a decoded record/replay journal.
	ScenarioJournal = scenario.Journal
	// ScenarioReplayResult is a journal replay's outcome with its
	// canonical metrics document.
	ScenarioReplayResult = scenario.ReplayResult
	// ArrivalShape is a time-varying arrival process (flash crowd,
	// diurnal tide, MMPP burst, correlated spike, constant Poisson).
	ArrivalShape = workload.Shape
	// ScenarioOptions parameterizes a scenario run across bindings.
	ScenarioOptions = experiments.ScenarioOptions
	// ScenarioReport is a scenario run's per-binding results.
	ScenarioReport = experiments.ScenarioReport
)

// Typed scenario-spec failures, discriminated with errors.Is. Every
// rejection wraps ErrScenarioSpec.
var (
	ErrScenarioSpec      = scenario.ErrSpec
	ErrUnknownShape      = scenario.ErrUnknownShape
	ErrUnknownInjection  = scenario.ErrUnknownInjection
	ErrMissingInvariants = scenario.ErrMissingInvariants
)

// ParseScenario decodes and validates a JSON scenario specification,
// rejecting unknown fields.
func ParseScenario(data []byte) (*Scenario, error) { return scenario.Parse(data) }

// RunScenario executes a scenario spec against the selected bindings
// (simulation and/or live cluster), optionally recording a journal.
func RunScenario(opts ScenarioOptions) (*ScenarioReport, error) {
	return experiments.RunScenario(opts)
}

// ReadScenarioJournal decodes a recorded scenario journal.
func ReadScenarioJournal(data []byte) (*ScenarioJournal, error) {
	return scenario.DecodeJournal(data)
}

// ReplayScenarioJournal re-executes a journal's op timeline in the
// deterministic simulation binding; replays of the same journal yield
// byte-identical canonical metrics documents.
func ReplayScenarioJournal(j *ScenarioJournal) (*ScenarioReplayResult, error) {
	return scenario.Replay(j)
}

// Autopilot re-exports: the closed-loop controller that tails a binding's
// watch stream, estimates the traffic regime online, and reconfigures the
// running system with flap-free hysteresis.
type (
	// Autopilot is the closed-loop traffic controller.
	Autopilot = autopilot.Autopilot
	// AutopilotOptions parameterizes the controller (window sizes,
	// regime thresholds, policy targets, hysteresis).
	AutopilotOptions = autopilot.Options
	// AutopilotDecision is one journaled controller decision.
	AutopilotDecision = autopilot.Decision
	// AutopilotStats is a snapshot of the controller's counters.
	AutopilotStats = autopilot.Stats
	// AutopilotWindowStats is one decision window's traffic summary.
	AutopilotWindowStats = autopilot.WindowStats
	// AutopilotRegime is the controller's traffic classification.
	AutopilotRegime = autopilot.Regime
	// AutopilotSweepOptions parameterizes the autopilot-vs-static
	// regime-change experiment sweep.
	AutopilotSweepOptions = experiments.AutopilotOptions
	// AutopilotReport is the sweep's per-scenario comparison.
	AutopilotReport = experiments.AutopilotReport
	// AutopilotScenarioReport is one scenario's static-vs-autopilot rows.
	AutopilotScenarioReport = experiments.AutopilotScenarioReport
	// AutopilotRunResult is one strategy's outcome in a sweep scenario.
	AutopilotRunResult = experiments.AutopilotRun
)

// Traffic regimes recognized by the autopilot's classifier.
const (
	RegimeCalm     = autopilot.RegimeCalm
	RegimeBurst    = autopilot.RegimeBurst
	RegimeOverload = autopilot.RegimeOverload
)

// NewAutopilot builds a controller from the given options; attach it to a
// binding with AttachSim (virtual time) or Start (wall clock).
func NewAutopilot(opts AutopilotOptions) (*Autopilot, error) { return autopilot.New(opts) }

// RunAutopilot runs the regime-change scenario sweep: every static strategy
// combination against the closed-loop controller, on the simulation binding
// and optionally the live cluster.
func RunAutopilot(opts AutopilotSweepOptions) (*AutopilotReport, error) {
	return experiments.RunAutopilot(opts)
}

// RenderAutopilot renders the sweep comparison as a text table.
func RenderAutopilot(rep *AutopilotReport) string { return experiments.RenderAutopilot(rep) }

// RenderAutopilotJSON renders the sweep comparison as indented JSON.
func RenderAutopilotJSON(rep *AutopilotReport) (string, error) {
	return experiments.RenderAutopilotJSON(rep)
}

// AutopilotBeatStatics reports whether the closed-loop controller beat every
// static strategy on at least two scenarios with all invariants intact.
func AutopilotBeatStatics(rep *AutopilotReport) bool { return experiments.AutopilotPassed(rep) }

// DefaultLinkDelay is the simulated one-way communication delay, calibrated
// to the paper's measured 322 µs mean on its 100 Mbps testbed.
const DefaultLinkDelay = 322 * time.Microsecond
