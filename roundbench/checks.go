package main

import (
	"bytes"
	"errors"
	"fmt"
	"math"
)

// The checks below judge the program's outputs against properties the
// harness computes itself, never through the program's own arithmetic.

// checkError is a failed output check, as opposed to a call that failed.
type checkError struct{ error }

// asCheck keeps a failed check found during set-up in *first and returns
// nil, so the run goes on and reports correct=false; any other error comes
// back unchanged.
func asCheck(err error, first *error) error {
	if errors.As(err, new(checkError)) {
		if *first == nil {
			*first = err
		}
		return nil
	}
	return err
}

// maxResidual bounds the relative residual of the precoder identity
// checked by checkPrecoder. Exact arithmetic gives 0; double-precision
// products of 10×10 complex matrices and the ZF cache's incremental
// (Sherman–Morrison) inverses stay below 1e-9 on the workloads' channels.
const maxResidual = 1e-6

// streamIntact reports whether stream j of a joint transmission must count
// as delivered and whether it is an error: a frame with a good FCS whose
// bytes differ from the ones sent on that stream fails the operation.
func streamIntact(sent, got []byte, fcsOK bool) (intact bool, err error) {
	if !fcsOK || got == nil {
		return false, nil
	}
	if !bytes.Equal(sent, got) {
		return false, fmt.Errorf("frame with a good FCS carries %d bytes that differ from the %d sent", len(got), len(sent))
	}
	return true, nil
}

// cmat is a row-major complex matrix as the program's matrix.M lays it
// out; the check reads the program's data but multiplies with its own
// loops.
type cmat struct {
	rows, cols int
	data       []complex128
}

// mul returns a·b.
func mul(a, b cmat) cmat {
	out := cmat{a.rows, b.cols, make([]complex128, a.rows*b.cols)}
	for i := 0; i < a.rows; i++ {
		for k := 0; k < a.cols; k++ {
			x := a.data[i*a.cols+k]
			for j := 0; j < b.cols; j++ {
				out.data[i*b.cols+j] += x * b.data[k*b.cols+j]
			}
		}
	}
	return out
}

// gramPlus returns H·Hᴴ + λI.
func gramPlus(h cmat, lambda float64) cmat {
	g := cmat{h.rows, h.rows, make([]complex128, h.rows*h.rows)}
	for i := 0; i < h.rows; i++ {
		for j := 0; j < h.rows; j++ {
			var acc complex128
			for k := 0; k < h.cols; k++ {
				y := h.data[j*h.cols+k]
				acc += h.data[i*h.cols+k] * complex(real(y), -imag(y))
			}
			g.data[i*h.rows+j] = acc
		}
		g.data[i*h.rows+i] += complex(lambda, 0)
	}
	return g
}

func maxAbs(xs []complex128) float64 {
	m := 0.0
	for _, x := range xs {
		m = math.Max(m, math.Hypot(real(x), imag(x)))
	}
	return m
}

// precoderResidual returns the worst relative residual, over the bins, of
// the identity a regularized zero-forcing precoder W = k·Hᴴ(H·Hᴴ+λI)⁻¹
// satisfies: H·W·(H·Hᴴ+λI) = k·H·Hᴴ. It says H·W = k·(I − λ(H·Hᴴ+λI)⁻¹):
// exactly k·I, diagonal, when λ = 0, and diagonal up to the
// regularization term otherwise. Checking the multiplied-out form needs no
// inverse, so the harness verifies the program's inversion with products
// alone.
func precoderResidual(h, w []cmat, k, lambda float64) (float64, error) {
	if len(h) != len(w) || len(h) == 0 {
		return 0, fmt.Errorf("precoder: %d channel bins, %d precoder bins", len(h), len(w))
	}
	worst := 0.0
	for b := range h {
		hb, wb := h[b], w[b]
		if hb.cols != wb.rows || hb.rows != wb.cols {
			return 0, fmt.Errorf("precoder: bin %d: H is %dx%d, W is %dx%d", b, hb.rows, hb.cols, wb.rows, wb.cols)
		}
		lhs := mul(mul(hb, wb), gramPlus(hb, lambda))
		rhs := gramPlus(hb, 0)
		scale := k * maxAbs(rhs.data)
		if !(scale > 0) {
			return math.Inf(1), nil
		}
		for i := range lhs.data {
			lhs.data[i] -= complex(k, 0) * rhs.data[i]
		}
		worst = math.Max(worst, maxAbs(lhs.data)/scale)
	}
	return worst, nil
}

// checkPrecoder fails when an installed precoder is not the regularized
// zero-forcing solution of the measured channel to within maxResidual.
func checkPrecoder(h, w []cmat, k, lambda float64) error {
	res, err := precoderResidual(h, w, k, lambda)
	if err != nil {
		return err
	}
	if !(res <= maxResidual) {
		return fmt.Errorf("precoder: H·W·(H·Hᴴ+λI) differs from k·H·Hᴴ by %.3g (relative), above %.0e", res, maxResidual)
	}
	return nil
}

// ledger is one demand-storm episode's packet accounting, summed over the
// streams.
type ledger struct {
	Offered, Delivered, Failed, Dropped, Backlog int
}

// checkConservation fails unless every offered packet is delivered,
// failed, dropped or still queued: offered = delivered + failed + dropped
// + backlog.
func checkConservation(l ledger) error {
	if l.Offered != l.Delivered+l.Failed+l.Dropped+l.Backlog {
		return fmt.Errorf("conservation: offered %d != delivered %d + failed %d + dropped %d + backlog %d",
			l.Offered, l.Delivered, l.Failed, l.Dropped, l.Backlog)
	}
	return nil
}

// checkAllLive fails unless every AP is back on the air.
func checkAllLive(live, total int) error {
	if live != total {
		return fmt.Errorf("recovery: %d of %d APs live at the end of the storm", live, total)
	}
	return nil
}
