package partition

import (
	"sync"
	"sync/atomic"

	"sptc/internal/cost"
	"sptc/internal/resilience"
)

// frontierDepth is how deep the coordinator expands the subset tree
// serially before fanning out: subtrees rooted at depth-2 nodes become
// tasks. The depth is a constant — independent of the worker count — so
// the task list, the per-task budget shares, and therefore the search
// outcome are identical no matter how many goroutines drain the list.
const frontierDepth = 2

// runParallel is the work-sharing branch-and-bound: a serial frontier
// expansion (recording candidates and charging the budget exactly like
// the serial search) collects subtree tasks, which a pool of
// Options.Workers goroutines then drains.
//
// Budgeted searches pre-split the remaining allowance across tasks in
// rank order (Budget.Split) and prune each task against the incumbent
// frozen after expansion plus the task's own finds, making every task a
// pure function of (graph, options, budget) — degradation decisions
// cannot depend on scheduling. Unbudgeted searches share one live
// incumbent, CAS-published on every improvement, so all workers prune
// against the global best; the partition returned is the same either
// way (the global (cost, size, rank) minimum), only the explored node
// counts differ.
func (s *searcher) runParallel(r *Result, budget *resilience.Budget, eval *cost.Evaluator) (*incumbent, []error) {
	// Serial frontier expansion: the coordinator runs walker.search node
	// for node (charging, bound cut, legality, size prune, record) down
	// to frontierDepth, where subtrees are queued instead of descended
	// into.
	coord := s.newWalker(budget, false, false)
	coord.evs[0] = eval
	coord.frontier = frontierDepth
	coord.seedEmpty(r.EmptyCost)
	coord.search(-1, 0, nodeIn{rec: r.EmptyCost, recorded: true})
	r.add(coord)
	tasks := coord.tasks

	if coord.stop != nil || len(tasks) == 0 {
		return coord.snapshot(), []error{coord.stop}
	}

	// The frozen incumbent every task starts from. Live mode publishes
	// it as the shared bound's initial value instead.
	frozen := coord.snapshot()
	live := budget.Remaining() < 0 // unlimited allowance: deadline only
	var taskBudgets []*resilience.Budget
	if live {
		s.shared.Store(frozen)
	} else {
		taskBudgets = budget.Split(len(tasks))
	}

	workers := s.opt.Workers
	if workers > len(tasks) {
		workers = len(tasks)
	}

	// Per-task result slots, written by whichever worker ran the task
	// (disjoint indices, no locks) and reduced in task-rank order after
	// the join, so the reduction itself is schedule-free. Each worker
	// owns its walker and evaluators; nothing but the immutable tables
	// and the live incumbent is shared.
	stops := make([]error, len(tasks)+1)
	stops[0] = coord.stop
	taskBest := make([]*incumbent, len(tasks))
	walkers := make([]*walker, workers)
	var next atomic.Int64
	var wg sync.WaitGroup
	for wi := 0; wi < workers; wi++ {
		w := s.newWalker(nil, live, true)
		w.evs[0] = eval.Clone()
		w.seedFrom(frozen)
		walkers[wi] = w
		wg.Add(1)
		go func(w *walker) {
			defer wg.Done()
			for {
				t := int(next.Add(1)) - 1
				if t >= len(tasks) {
					return
				}
				if live {
					w.budget = budget
				} else {
					// Frozen mode: each task is a pure function of its
					// pre-split budget share and the frozen incumbent —
					// reseed so nothing carries over from whatever task
					// this worker happened to run before.
					w.budget = taskBudgets[t]
					w.seedFrom(frozen)
				}
				w.stop = nil
				prefix := tasks[t].prefix
				for _, i := range prefix {
					w.push(int(i))
				}
				w.search(int(prefix[len(prefix)-1]), 0, tasks[t].in)
				for k := len(prefix) - 1; k >= 0; k-- {
					w.pop(int(prefix[k]))
				}
				stops[t+1] = w.stop
				taskBest[t] = w.snapshot()
			}
		}(w)
	}
	wg.Wait()

	for _, w := range walkers {
		r.add(w)
	}

	best := frozen
	for _, cand := range taskBest {
		if cand != nil && incBetter(cand, best) {
			best = cand
		}
	}
	return best, stops
}
