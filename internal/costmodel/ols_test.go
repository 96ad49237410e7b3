package costmodel

import (
	"errors"
	"math"
	"testing"
)

// trainOLS is the closed-form oracle for Train: it fits the polynomial
// basis by weighted least squares on the relative residual. Minimising
// Σ((h(X)−t)/t)² is ordinary least squares in the scaled design
// z_ij = f_ij/t_i against the all-ones target, solved via the normal
// equations with Tikhonov damping for stability.
func trainOLS(terms []Term, data []Sample, ridge float64) (*Model, error) {
	if len(terms) == 0 {
		return nil, errors.New("costmodel: empty term basis")
	}
	if len(data) == 0 {
		return nil, errors.New("costmodel: no training samples")
	}
	if ridge <= 0 {
		ridge = 1e-9
	}
	k := len(terms)
	// Normal equations A w = b with A = ZᵀZ + ridge·I, b = Zᵀ1.
	A := make([][]float64, k)
	for i := range A {
		A[i] = make([]float64, k)
	}
	b := make([]float64, k)
	row := make([]float64, k)
	for _, s := range data {
		t := math.Max(s.T, 1e-9)
		for j, term := range terms {
			row[j] = term.Eval(s.X) / t
		}
		for i := 0; i < k; i++ {
			b[i] += row[i]
			for j := 0; j < k; j++ {
				A[i][j] += row[i] * row[j]
			}
		}
	}
	for i := 0; i < k; i++ {
		A[i][i] += ridge
	}
	w, err := solveGauss(A, b)
	if err != nil {
		return nil, err
	}
	return &Model{Terms: append([]Term(nil), terms...), Weights: w}, nil
}

// solveGauss solves Ax = b by Gaussian elimination with partial
// pivoting. A and b are clobbered.
func solveGauss(A [][]float64, b []float64) ([]float64, error) {
	n := len(A)
	for col := 0; col < n; col++ {
		pivot := col
		for r := col + 1; r < n; r++ {
			if math.Abs(A[r][col]) > math.Abs(A[pivot][col]) {
				pivot = r
			}
		}
		if math.Abs(A[pivot][col]) < 1e-15 {
			return nil, errors.New("costmodel: singular design matrix")
		}
		A[col], A[pivot] = A[pivot], A[col]
		b[col], b[pivot] = b[pivot], b[col]
		for r := col + 1; r < n; r++ {
			f := A[r][col] / A[col][col]
			for c := col; c < n; c++ {
				A[r][c] -= f * A[col][c]
			}
			b[r] -= f * b[col]
		}
	}
	x := make([]float64, n)
	for r := n - 1; r >= 0; r-- {
		sum := b[r]
		for c := r + 1; c < n; c++ {
			sum -= A[r][c] * x[c]
		}
		x[r] = sum / A[r][r]
	}
	return x, nil
}

// The oracle is exact on noiseless data.
func TestTrainOLSRecoversExactModel(t *testing.T) {
	truth := func(x Vars) float64 { return 2e-4*x[DLIn]*x[DGIn] + 3e-6*x[DLIn] + 1e-6 }
	data := synthSamples(2000, 5, truth, 0)
	terms := PolyTerms([]VarKind{DLIn, DGIn}, 2)
	m, err := trainOLS(terms, data, 0)
	if err != nil {
		t.Fatal(err)
	}
	if msre := MSRE(m, data); msre > 1e-6 {
		t.Fatalf("noiseless OLS MSRE = %v, want ~0", msre)
	}
}

// SGD must land in the closed-form fit's accuracy band on noisy data.
func TestTrainOLSMatchesSGDBallpark(t *testing.T) {
	truth := Reference(CN).H.Eval
	data := synthSamples(3000, 9, truth, 0.05)
	train, test := Split(data, 0.8, 1)
	terms := PolyTerms([]VarKind{DLIn, DGIn}, 2)
	ols, err := trainOLS(terms, train, 0)
	if err != nil {
		t.Fatal(err)
	}
	sgd, err := Train(terms, train, TrainConfig{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	mo, ms := MSRE(ols, test), MSRE(sgd, test)
	if mo > 0.11 {
		t.Fatalf("OLS test MSRE = %v", mo)
	}
	if mo > 5*ms+0.05 && ms > 5*mo+0.05 {
		t.Fatalf("OLS (%v) and SGD (%v) disagree wildly", mo, ms)
	}
}

// The oracle refuses inputs that would make the comparison vacuous.
func TestTrainOLSErrors(t *testing.T) {
	if _, err := trainOLS(nil, []Sample{{}}, 0); err == nil {
		t.Fatal("empty basis accepted")
	}
	if _, err := trainOLS(PolyTerms([]VarKind{DLIn}, 1), nil, 0); err == nil {
		t.Fatal("empty data accepted")
	}
}

func TestSolveGaussSingular(t *testing.T) {
	// Two identical columns: singular without damping.
	A := [][]float64{{1, 1}, {1, 1}}
	b := []float64{1, 1}
	if _, err := solveGauss(A, b); err == nil {
		t.Fatal("singular system solved")
	}
}

func TestSolveGaussKnownSystem(t *testing.T) {
	A := [][]float64{{2, 1}, {1, 3}}
	b := []float64{5, 10}
	x, err := solveGauss(A, b)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x[0]-1) > 1e-12 || math.Abs(x[1]-3) > 1e-12 {
		t.Fatalf("solution = %v, want [1 3]", x)
	}
}
