package costmodel

// Algo identifies the five graph algorithms the paper evaluates.
type Algo int

const (
	CN   Algo = iota // common neighbours
	TC               // triangle counting
	WCC              // weakly connected components
	PR               // PageRank
	SSSP             // single-source shortest path
	numAlgos
)

var algoNames = [numAlgos]string{"CN", "TC", "WCC", "PR", "SSSP"}

func (a Algo) String() string {
	if a < 0 || a >= numAlgos {
		return "?"
	}
	return algoNames[a]
}

// Algos lists all five algorithms in paper order — the fixed batch of
// the mixed-workload experiments.
func Algos() []Algo { return []Algo{CN, TC, WCC, PR, SSSP} }

// ReferenceModels returns Reference(a) for each algorithm of Algos, in
// that order: the models of the five-algorithm batch composite.
func ReferenceModels() []CostModel {
	ms := make([]CostModel, 0, numAlgos)
	for _, a := range Algos() {
		ms = append(ms, Reference(a))
	}
	return ms
}

// Reference returns the cost model the paper learned for a (Table 5).
// These analytic functions are the inputs our partitioners are driven
// by in the experiments, exactly as the paper feeds its learned models
// into ParE2H/ParV2H. The learning pipeline (Train) reproduces models
// of this shape from running logs; see the Table-5 bench.
//
// Units are milliseconds per vertex from the paper's cluster; only the
// relative shape matters to the partitioners.
func Reference(a Algo) CostModel {
	switch a {
	case CN:
		return CostModel{
			// hCN = 9.23e-5·d+L·d+G + 1.04e-6·d+L + 1.02e-6
			H: Func(func(x Vars) float64 {
				return 9.23e-5*x[DLIn]*x[DGIn] + 1.04e-6*x[DLIn] + 1.02e-6
			}),
			// gCN = 5.57e-5·D·d-G
			G: Func(func(x Vars) float64 {
				return 5.57e-5 * x[AvgDeg] * x[DGOut]
			}),
		}
	case TC:
		return CostModel{
			// hTC = 1.8e-3·dL + 1.7e-7·dL·dG  (undirected degrees)
			H: Func(func(x Vars) float64 {
				return 1.8e-3*x[DLOut] + 1.7e-7*x[DLOut]*x[DGOut]
			}),
			// gTC = 8.42e-5·dG·r·I
			G: Func(func(x Vars) float64 {
				return 8.42e-5 * x[DGOut] * x[Repl] * x[NotECut]
			}),
		}
	case WCC:
		return CostModel{
			// hWCC = 6.53e-6·dL + 3.46e-5
			H: Func(func(x Vars) float64 {
				return 6.53e-6*(x[DLIn]+x[DLOut]) + 3.46e-5
			}),
			// gWCC = 7.51e-5·(1.98r − 0.97)
			G: Func(func(x Vars) float64 {
				v := 7.51e-5 * (1.98*x[Repl] - 0.97)
				if v < 0 {
					return 0
				}
				return v
			}),
		}
	case PR:
		return CostModel{
			// hPR = 4.88e-5·d+L + 4e-4
			H: Func(func(x Vars) float64 {
				return 4.88e-5*x[DLIn] + 4e-4
			}),
			// gPR = 6.60e-4·r + 1.1e-4
			G: Func(func(x Vars) float64 {
				return 6.60e-4*x[Repl] + 1.1e-4
			}),
		}
	case SSSP:
		return CostModel{
			// hSSSP = 6.74e-4·d-L + 1.66e-4
			H: Func(func(x Vars) float64 {
				return 6.74e-4*x[DLOut] + 1.66e-4
			}),
			// gSSSP = 1.30e-4·r + 4.6e-5
			G: Func(func(x Vars) float64 {
				return 1.30e-4*x[Repl] + 4.6e-5
			}),
		}
	}
	return CostModel{H: Zero, G: Zero}
}

// LearnableVars returns the reduced variable set the paper selects per
// algorithm via feature selection + domain knowledge (the "training
// cost reduction" remark of Section 4), and the polynomial degree to
// expand.
func LearnableVars(a Algo) (vars []VarKind, degree int) {
	switch a {
	case CN:
		return []VarKind{DLIn, DGIn}, 2
	case TC:
		return []VarKind{DLOut, DGOut}, 2
	case WCC:
		return []VarKind{DLIn, DLOut}, 1
	case PR:
		return []VarKind{DLIn}, 1
	case SSSP:
		return []VarKind{DLOut}, 1
	}
	return []VarKind{DLIn, DLOut, DGIn, DGOut, Repl}, 2
}

// LearnableCommVars is the communication-side analogue of
// LearnableVars.
func LearnableCommVars(a Algo) (vars []VarKind, degree int) {
	switch a {
	case CN:
		// The engine's CN synchronisation ships in-neighbour lists of
		// split vertices, so the informative variables are d+G, r and
		// the e-cut indicator (the paper's GRAPE aggregation made
		// D·d-G informative instead; see EXPERIMENTS.md).
		return []VarKind{DGIn, Repl, NotECut}, 3
	case TC:
		return []VarKind{DGOut, Repl, NotECut}, 3
	default:
		return []VarKind{Repl}, 1
	}
}
