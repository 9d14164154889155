package socflow

import "errors"

// Sentinel validation errors. Every configuration error returned by
// Run, RunDistributed, Client.Submit, SubmitDistributed, Serve and
// PlanTopology wraps one of these, so callers can branch with errors.Is
// instead of matching message strings; the wrapped message still
// carries the offending value. A daemon refuses the same submission
// with 400 and the same message.
var (
	// ErrUnknownModel reports a model name outside Models().
	ErrUnknownModel = errors.New("socflow: unknown model")
	// ErrUnknownDataset reports a dataset name outside Datasets().
	ErrUnknownDataset = errors.New("socflow: unknown dataset")
	// ErrUnknownStrategy reports a strategy name outside Strategies().
	ErrUnknownStrategy = errors.New("socflow: unknown strategy")
	// ErrUnknownMixedMode reports a Mixed value outside
	// auto/fp32/int8/half.
	ErrUnknownMixedMode = errors.New("socflow: unknown mixed mode")
	// ErrUnknownGeneration reports a Generation value outside
	// sd865/sd8gen1.
	ErrUnknownGeneration = errors.New("socflow: unknown SoC generation")
	// ErrBadTopology reports inconsistent PlanTopology arguments.
	ErrBadTopology = errors.New("socflow: invalid topology")
	// ErrBadOption reports a config field out of range — a negative
	// fleet, epoch budget or learning rate, more data-parallel groups
	// than SoCs — or an invalid option combination — a heartbeat
	// timeout not exceeding its interval, a non-positive checkpoint
	// stride, a negative retry budget. Configs and options are validated
	// before any work starts, so a run never begins with values it would
	// panic on, ignore or misapply.
	ErrBadOption = errors.New("socflow: invalid option")
	// ErrBadModelSpec reports an invalid RegisterModel specification.
	ErrBadModelSpec = errors.New("socflow: invalid model spec")
	// ErrUnknownParallelism reports a Config.Parallelism value outside
	// ""/data/auto/pipeline, or one combined with a baseline strategy.
	ErrUnknownParallelism = errors.New("socflow: unknown parallelism")
	// ErrBadPlan reports a WithPlan plan that fails validation, does
	// not match the configured cluster, or — a data plan — prices a
	// placement or batch other than the one the run executes.
	ErrBadPlan = errors.New("socflow: invalid parallelization plan")
)
