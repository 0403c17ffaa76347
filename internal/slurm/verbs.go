package slurm

import "cmp"

// limiterCost is what a verb pays the per-connection token bucket.
type limiterCost int

const (
	costBulk    limiterCost = iota // one token: submissions, queries, time control
	costControl                    // OverloadConfig.ControlCost: operator actions still land on a saturated server
	costFree                       // never limited
)

// verb declares one wire op, once: how admission treats it and — for a
// mutation — how the wire Request becomes the journal Entry that
// Controller.mutate applies and appends. Everything else that needs to know
// about a verb (shedding, the rate limiter, client retry and hedging,
// dispatch) looks it up here; Controller.apply is the only other place that
// decides anything per verb.
type verb struct {
	class int // priority class: shed order and the deadline-admission estimate
	cost  limiterCost
	// read marks a verb with no server-side effect: safe to retry after a
	// transport failure and safe to hedge.
	read bool
	// entry builds the journal Entry of a mutating verb; nil for reads.
	entry func(Request) Entry
}

func jobEntry(r Request) Entry  { return Entry{Op: r.Op, ID: r.ID} }
func nodeEntry(r Request) Entry { return Entry{Op: r.Op, Node: r.Node} }

var verbs = map[string]verb{
	"submit": {class: classSubmit, entry: func(r Request) Entry {
		return Entry{Op: r.Op, App: r.App, Nodes: r.Nodes, Walltime: r.Walltime,
			Runtime: r.Runtime, Name: r.Name, After: r.After, Token: r.Token}
	}},
	"advance": {class: classSubmit, entry: func(r Request) Entry { return Entry{Op: r.Op, Seconds: r.Seconds} }},
	"drain":   {class: classSubmit, entry: func(r Request) Entry { return Entry{Op: r.Op} }},

	"cancel":      {class: classControl, cost: costControl, entry: jobEntry},
	"requeue":     {class: classControl, cost: costControl, entry: jobEntry},
	"drain_node":  {class: classControl, cost: costControl, entry: nodeEntry},
	"resume_node": {class: classControl, cost: costControl, entry: nodeEntry},
	"down_node":   {class: classControl, cost: costControl, entry: nodeEntry},
	"up_node":     {class: classControl, cost: costControl, entry: nodeEntry},

	"queue":  {class: classQuery, read: true},
	"nodes":  {class: classQuery, read: true},
	"stats":  {class: classQuery, read: true},
	"now":    {class: classQuery, read: true},
	"config": {class: classControl, read: true},
	// health additionally bypasses admission altogether (Server.serveLine).
	"health": {class: classControl, read: true},
	// Replication keeps the standby's lease alive; rate-limiting it would
	// let a submission storm cause a spurious failover.
	"replicate": {class: classControl, cost: costFree},
}

// verbClass maps an op to its priority class. Unknown ops class as queries:
// they will be rejected anyway, and a garbage-spraying client must not ride
// the control-class exemption.
func verbClass(op string) int {
	if v, ok := verbs[op]; ok {
		return v.class
	}
	return classQuery
}

// verbCost is the token-bucket price of an op; unknown ops pay full price.
func verbCost(op string, controlCost float64) float64 {
	switch verbs[op].cost {
	case costFree:
		return 0
	case costControl:
		return cmp.Or(controlCost, DefaultControlCost)
	}
	return 1
}

// idempotentRequest reports whether req may be retried after a transport
// failure, where the client cannot know if the server executed it: reads
// always, a mutation only when the Entry it becomes carries a dedupe token
// (a tokened submit). BUSY responses are retryable for every verb — they are
// generated before the operation runs.
func idempotentRequest(req Request) bool {
	v := verbs[req.Op]
	return v.read || (v.entry != nil && v.entry(req).Token != "")
}

// hedgeable reports whether a request may be safely issued twice in
// parallel. Mutations (even tokened submits, which are dedup-safe but not
// side-effect-free on the journal) and time control are never hedged.
func hedgeable(req Request) bool { return verbs[req.Op].read }
