package sim

import (
	"container/heap"
	"fmt"
	"math"
	"math/rand"

	"repro/internal/alloc"
	"repro/internal/model"
	"repro/internal/queueing"
	"repro/internal/telemetry"
)

// simTel holds the simulator's pre-resolved metric handles; nil
// disables instrumentation. All values are in simulated time units.
type simTel struct {
	procDelay  *telemetry.Histogram
	commDelay  *telemetry.Histogram
	response   *telemetry.Histogram
	slaViols   *telemetry.Counter
	completed  *telemetry.Counter
	dispatched *telemetry.Counter
	breakEven  []float64 // per client: response beyond which utility < 0
}

func newSimTel(set *telemetry.Set, scen *model.Scenario) *simTel {
	if set == nil {
		return nil
	}
	set.Metrics.Help("sim_queue_delay", "request queueing delay per tandem stage, simulated time units")
	set.Metrics.Help("sim_sla_violations_total", "completed requests whose response time exceeded the client's break-even SLA response")
	t := &simTel{
		procDelay:  set.Histogram(telemetry.Name("sim_queue_delay", "stage", "proc"), telemetry.DurationBuckets),
		commDelay:  set.Histogram(telemetry.Name("sim_queue_delay", "stage", "comm"), telemetry.DurationBuckets),
		response:   set.Histogram("sim_response", telemetry.DurationBuckets),
		slaViols:   set.Counter("sim_sla_violations_total"),
		completed:  set.Counter("sim_requests_completed_total"),
		dispatched: set.Counter("sim_requests_dispatched_total"),
		breakEven:  make([]float64, scen.NumClients()),
	}
	for i := range scen.Clients {
		t.breakEven[i] = scen.Utility(model.ClientID(i)).BreakEvenResponse()
	}
	return t
}

// Config controls a simulation run.
type Config struct {
	// Horizon is the simulated time span. Measurements start after a
	// warm-up of Horizon/10.
	Horizon float64
	// Seed drives arrivals, dispatch and service draws.
	Seed int64
	// Telemetry, when non-nil, records queueing delays, response times,
	// SLA violations and dispatch counts during the run.
	Telemetry *telemetry.Set
}

// DefaultConfig simulates 5000 time units with a 10% warmup.
func DefaultConfig() Config {
	return Config{Horizon: 5000, Seed: 1}
}

// ClientStats reports one client's measured behaviour.
type ClientStats struct {
	Completed    int
	MeanResponse float64
	AnalyticMean float64 // model prediction R̄ for comparison
	Revenue      float64 // λ_agreed · U(measured mean response)
	// P95 is the measured 95th-percentile response time (from a bounded
	// reservoir sample; 0 when too few completions).
	P95 float64
}

// ServerStats reports one server's measured processing utilization.
type ServerStats struct {
	Busy     float64 // fraction of horizon the processing stage was busy
	Analytic float64 // Σ α·λ̃·t/C from the allocation
}

// Result is the outcome of a simulation run.
type Result struct {
	Clients       []ClientStats
	Servers       []ServerStats
	Profit        float64 // revenue at measured response times − energy cost
	AnalyticValue float64 // the allocation's analytical profit
	Completed     int
}

// portionQueues is the tandem queue pair serving one (client, server)
// portion.
type portionQueues struct {
	proc fifoQueue
	comm fifoQueue
	srv  model.ServerID
	// procShare converts the queue's busy time (fraction of its GPS
	// share) into server utilization.
	procShare float64
}

// Simulate runs the discrete-event simulation of allocation a.
func Simulate(a *alloc.Allocation, cfg Config) (*Result, error) {
	if !(cfg.Horizon > 0) || math.IsInf(cfg.Horizon, 1) {
		return nil, fmt.Errorf("sim: invalid horizon %v", cfg.Horizon)
	}
	warmup := cfg.Horizon / 10 // measurements before this are discarded
	scen := a.Scenario()
	rng := rand.New(rand.NewSource(cfg.Seed))
	tel := newSimTel(cfg.Telemetry, scen)

	// Build one tandem queue pair per portion, and per-client dispatchers.
	var (
		queues      []*portionQueues
		dispatchers = make([]*dispatcher, scen.NumClients())
		queueIndex  = make(map[[2]int]int) // (client, portionIdx) → queue
		rates       = make([]float64, scen.NumClients())
	)
	for i := range scen.Clients {
		id := model.ClientID(i)
		if !a.Assigned(id) {
			continue
		}
		cl := &scen.Clients[i]
		rates[i] = cl.PredictedRate
		ps := a.Portions(id)
		var routed *telemetry.Counter
		if tel != nil {
			routed = tel.dispatched
		}
		d, err := newDispatcher(ps, routed)
		if err != nil {
			return nil, fmt.Errorf("sim: client %d: %w", i, err)
		}
		dispatchers[i] = d
		for pi, p := range ps {
			class := scen.Cloud.ServerClass(p.Server)
			queueIndex[[2]int{i, pi}] = len(queues)
			queues = append(queues, &portionQueues{
				proc:      fifoQueue{rate: queueing.GPSServiceRate(p.ProcShare, class.ProcCap, cl.ProcTime)},
				comm:      fifoQueue{rate: queueing.GPSServiceRate(p.CommShare, class.CommCap, cl.CommTime)},
				srv:       p.Server,
				procShare: p.ProcShare,
			})
		}
	}

	// Measurement accumulators; percentiles come from per-client
	// reservoir samples so memory stays bounded on long horizons.
	respSum := make([]float64, scen.NumClients())
	respCnt := make([]int, scen.NumClients())
	reservoirs := make([]*reservoir, scen.NumClients())
	for i := range reservoirs {
		reservoirs[i] = newReservoir(_reservoirSize)
	}

	var h eventHeap
	heap.Init(&h)
	for i := range scen.Clients {
		if dispatchers[i] == nil {
			continue
		}
		heap.Push(&h, event{at: rng.ExpFloat64() / rates[i], kind: evArrival, client: i})
	}

	expDraw := func(rate float64) float64 { return rng.ExpFloat64() / rate }

	for h.Len() > 0 {
		e := heap.Pop(&h).(event)
		if e.at > cfg.Horizon {
			break
		}
		switch e.kind {
		case evArrival:
			i := e.client
			// Next arrival for this client.
			heap.Push(&h, event{at: e.at + expDraw(rates[i]), kind: evArrival, client: i})
			pi := dispatchers[i].route(rng)
			q := queues[queueIndex[[2]int{i, pi}]]
			req := &request{client: i, arrivedAt: e.at}
			if startService(&q.proc, e.at) {
				if tel != nil && e.at >= warmup {
					tel.procDelay.Observe(0)
				}
				heap.Push(&h, event{at: e.at + expDraw(q.proc.rate), kind: evProcDone,
					queue: queueIndex[[2]int{i, pi}], req: req})
			} else {
				q.proc.waiting = append(q.proc.waiting, req)
			}
		case evProcDone:
			q := queues[e.queue]
			if next := finishService(&q.proc, e.at); next != nil {
				if tel != nil && next.arrivedAt >= warmup {
					tel.procDelay.Observe(e.at - next.arrivedAt)
				}
				heap.Push(&h, event{at: e.at + expDraw(q.proc.rate), kind: evProcDone, queue: e.queue, req: next})
			}
			e.req.procDoneAt = e.at
			if startService(&q.comm, e.at) {
				if tel != nil && e.req.arrivedAt >= warmup {
					tel.commDelay.Observe(0)
				}
				heap.Push(&h, event{at: e.at + expDraw(q.comm.rate), kind: evCommDone, queue: e.queue, req: e.req})
			} else {
				q.comm.waiting = append(q.comm.waiting, e.req)
			}
		case evCommDone:
			q := queues[e.queue]
			if next := finishService(&q.comm, e.at); next != nil {
				if tel != nil && next.arrivedAt >= warmup {
					tel.commDelay.Observe(e.at - next.procDoneAt)
				}
				heap.Push(&h, event{at: e.at + expDraw(q.comm.rate), kind: evCommDone, queue: e.queue, req: next})
			}
			if e.req.arrivedAt >= warmup {
				resp := e.at - e.req.arrivedAt
				respSum[e.req.client] += resp
				respCnt[e.req.client]++
				reservoirs[e.req.client].add(rng, resp)
				if tel != nil {
					tel.response.Observe(resp)
					tel.completed.Inc()
					if resp > tel.breakEven[e.req.client] {
						tel.slaViols.Inc()
					}
				}
			}
		}
	}

	return summarize(a, cfg, queues, respSum, respCnt, reservoirs), nil
}

// startService reports whether the queue was idle (service starts now);
// busy-time accounting begins.
func startService(q *fifoQueue, now float64) bool {
	if q.busy {
		return false
	}
	q.busy = true
	q.lastBusy = now
	return true
}

// finishService completes the in-service request at time now and returns
// the next waiting request, if any (its service starts immediately).
func finishService(q *fifoQueue, now float64) *request {
	q.busySum += now - q.lastBusy
	q.busy = false
	if len(q.waiting) == 0 {
		return nil
	}
	next := q.waiting[0]
	q.waiting = q.waiting[1:]
	q.busy = true
	q.lastBusy = now
	return next
}

// summarize folds the raw accumulators into a Result.
func summarize(a *alloc.Allocation, cfg Config, queues []*portionQueues,
	respSum []float64, respCnt []int, reservoirs []*reservoir) *Result {
	scen := a.Scenario()
	res := &Result{
		Clients:       make([]ClientStats, scen.NumClients()),
		Servers:       make([]ServerStats, scen.Cloud.NumServers()),
		AnalyticValue: a.Profit(),
	}
	var revenue float64
	for i := range scen.Clients {
		id := model.ClientID(i)
		cs := ClientStats{Completed: respCnt[i]}
		if a.Assigned(id) {
			if r, err := a.ResponseTime(id); err == nil {
				cs.AnalyticMean = r
			}
		}
		if respCnt[i] > 0 {
			cs.MeanResponse = respSum[i] / float64(respCnt[i])
			cs.Revenue = scen.Clients[i].ArrivalRate * scen.Utility(id).Value(cs.MeanResponse)
			cs.P95 = reservoirs[i].percentile(0.95)
		}
		revenue += cs.Revenue
		res.Completed += respCnt[i]
		res.Clients[i] = cs
	}
	busyByServer := make([]float64, scen.Cloud.NumServers())
	for _, q := range queues {
		// Close out a service still in flight at the horizon, then weight
		// the queue's busy time by its GPS share to get server
		// utilization.
		busy := q.proc.busySum
		if q.proc.busy {
			busy += cfg.Horizon - q.proc.lastBusy
		}
		busyByServer[q.srv] += busy * q.procShare
	}
	var cost float64
	for j := range res.Servers {
		id := model.ServerID(j)
		res.Servers[j] = ServerStats{
			Busy:     busyByServer[j] / cfg.Horizon,
			Analytic: a.ProcUtilization(id),
		}
		cost += a.ServerCost(id)
	}
	res.Profit = revenue - cost
	return res
}
