package wanify

import (
	"github.com/wanify/wanify/internal/agent"
	"github.com/wanify/wanify/internal/bwmatrix"
	"github.com/wanify/wanify/internal/optimize"
	rgauge "github.com/wanify/wanify/internal/runtime"
	"github.com/wanify/wanify/internal/spark"
)

// The deployment steps Enable and EnableJobSet run, opened for the
// tests that drive them one by one and compare against the one-call
// paths.

// DeployJobSetAgents opens o.Jobs slots over (pred, plan) — EnableJobSet
// without the gauging and the controller.
func (f *Framework) DeployJobSetAgents(pred bwmatrix.Matrix, plan optimize.Plan, o JobSetOptions) error {
	if err := o.validate(); err != nil {
		return err
	}
	f.deploy(pred, plan, o, false)
	return nil
}

// StartController starts the deployment's re-gauging controller,
// replanning with opts.
func (f *Framework) StartController(opts OptimizeOptions) *rgauge.Controller {
	f.slots.opts.Optimize = opts
	return f.startController()
}

// JobAgents returns the per-slot agent groups (nil when nothing is
// deployed; a free slot's group is nil).
func (f *Framework) JobAgents() [][]*agent.Agent { return f.groups }

// JobPolicies returns one connection policy per slot.
func (f *Framework) JobPolicies() []spark.ConnPolicy { return f.jobPolicies() }
