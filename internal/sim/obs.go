package sim

import (
	"fmt"

	"agnopol/internal/obs"
)

// RunFigureObserved is RunFigure with an observability bundle threaded
// through the underlying run.
func RunFigureObserved(spec FigureSpec, seed uint64, o *obs.Obs) (*Figure, *Result, error) {
	r, err := Execute(Spec{Chain: spec.Chain, Users: spec.Users, Seed: seed, Obs: o})
	if err != nil {
		return nil, nil, err
	}
	return FigureFromResult(spec.ID, r.Result), r.Result, nil
}

// RunTablesObserved is RunTables with an observability bundle threaded
// through every underlying run. Chain metrics accumulate in the shared
// registry, distinguished by their chain label.
func RunTablesObserved(seed uint64, o *obs.Obs) ([]*Table, map[int]map[ChainName]*Result, error) {
	byUsers := map[int]map[ChainName]*Result{16: {}, 32: {}}
	for _, users := range []int{16, 32} {
		for _, c := range AllChains {
			r, err := Execute(Spec{Chain: c, Users: users, Seed: seed, Obs: o})
			if err != nil {
				return nil, nil, fmt.Errorf("sim: %s/%d users: %w", c, users, err)
			}
			byUsers[users][c] = r.Result
		}
	}
	tables := []*Table{
		BuildTable("deploy", 16, byUsers[16]),
		BuildTable("deploy", 32, byUsers[32]),
		BuildTable("attach", 16, byUsers[16]),
		BuildTable("attach", 32, byUsers[32]),
	}
	return tables, byUsers, nil
}
