package main

import (
	"fmt"
	"math/rand"
)

// The array generator: nArrays float64 matrices of arrayDim×arrayDim.
// Every element is a multiple of 1/8 below 256, so every sum the
// queries ask for is exact in float64 whatever order the program adds
// in, and the expected answers are computed here without the program.

const (
	nArrays    = 16
	arrayDim   = 1024
	zipfS      = 1.2
	strideStep = 128 // row step of the strided access pattern
	sliceRows  = 256 // rows of the contiguous slice pattern
)

// splitmix64 is a stateless 64-bit mixer (Steele et al.).
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

type arrayModel struct {
	seed    uint64
	rowSum  [nArrays][arrayDim]float64
	colSum  [nArrays][arrayDim]float64
	total   [nArrays]float64
	strided [nArrays][arrayDim]float64 // per column: sum over rows 1, 1+strideStep, ...
}

// elem is element (r, c) (0-based) of array k (0-based).
func (m *arrayModel) elem(k, r, c int) float64 {
	h := splitmix64(m.seed ^ uint64(k)<<40 ^ uint64(r*arrayDim+c))
	return float64(h%2048) / 8
}

func newArrayModel(seed int64) *arrayModel {
	m := &arrayModel{seed: splitmix64(uint64(seed))}
	for k := 0; k < nArrays; k++ {
		for r := 0; r < arrayDim; r++ {
			for c := 0; c < arrayDim; c++ {
				v := m.elem(k, r, c)
				m.rowSum[k][r] += v
				m.colSum[k][c] += v
				m.total[k] += v
				if r%strideStep == 0 {
					m.strided[k][c] += v
				}
			}
		}
	}
	return m
}

// data materializes array k in row-major order.
func (m *arrayModel) data(k int) []float64 {
	out := make([]float64, arrayDim*arrayDim)
	for r := 0; r < arrayDim; r++ {
		for c := 0; c < arrayDim; c++ {
			out[r*arrayDim+c] = m.elem(k, r, c)
		}
	}
	return out
}

// metadataTurtle is the relational side: one subject per array with
// its number; the data triple is attached through the array API.
func arrayMetadataTurtle() string {
	s := "@prefix b: <http://bench/> .\n"
	for k := 0; k < nArrays; k++ {
		s += fmt.Sprintf("b:arr%d b:id %d .\n", k, k+1)
	}
	return s
}

// arrayBlock is the array mix's deck: 9 short slots (3 per pattern)
// and 3 long ones (1 per pattern).
const arrayBlock = 12

// arrayQuery returns the array-mix query for a deck slot: the array is
// drawn by Zipf(1.2), the slot picks one of the §6.3.1 access patterns
// — element, row and stride are short, full, column and slice long.
func (m *arrayModel) arrayQuery(rng *rand.Rand, zipf *rand.Zipf, slot int) *query {
	k := int(zipf.Uint64())
	deref := func(expr string) string {
		return fmt.Sprintf(bibPrefix+"SELECT (%s AS ?v) WHERE { ?s b:id %d ; b:data ?a }", expr, k+1)
	}
	r, c := rng.Intn(arrayDim), rng.Intn(arrayDim)
	q := &query{class: clsShort, rows: 1, isValue: true}
	if slot < arrayBlock*3/4 {
		switch slot % 3 {
		case 0:
			q.kind, q.value = "element", m.elem(k, r, c)
			q.text = deref(fmt.Sprintf("?a[%d,%d]", r+1, c+1))
		case 1:
			q.kind, q.value = "row", m.rowSum[k][r]
			q.text = deref(fmt.Sprintf("asum(?a[%d,:])", r+1))
		default:
			q.kind, q.value = "stride", m.strided[k][c]
			q.text = deref(fmt.Sprintf("asum(?a[1:%d:%d,%d])", strideStep, arrayDim, c+1))
		}
		return q
	}
	q.class = clsLong
	switch slot - arrayBlock*3/4 {
	case 0:
		q.kind, q.value = "full", m.total[k]
		q.text = deref("asum(?a)")
	case 1:
		q.kind, q.value = "column", m.colSum[k][c]
		q.text = deref(fmt.Sprintf("asum(?a[:,%d])", c+1))
	default:
		lo := rng.Intn(arrayDim - sliceRows + 1)
		for i := lo; i < lo+sliceRows; i++ {
			q.value += m.rowSum[k][i]
		}
		q.kind = "slice"
		q.text = deref(fmt.Sprintf("asum(?a[%d:%d,:])", lo+1, lo+sliceRows))
	}
	return q
}
