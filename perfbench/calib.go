package main

import (
	"runtime"
	"time"

	"oblidb/internal/crypt"
)

func maxProcs() int { return runtime.GOMAXPROCS(0) }

// calibrate times a fixed crypt.Sealer seal+open loop on a 4 KiB block
// and returns the median ns per seal+open over several batches. It
// depends only on the machine and the sealer, so a run on a different
// machine shows as such instead of as a regression.
func calibrate() float64 {
	seal, open := sealCost(4096, 9, 200)
	return seal + open
}

// sealCost returns the median ns of one SealTo and one OpenInto on a
// block of size bytes, over batches of n calls each.
func sealCost(size, batches, n int) (sealNs, openNs float64) {
	s, err := crypt.NewSealer(make([]byte, crypt.KeySize))
	if err != nil {
		panic(err) // a fixed-size zero key is always valid
	}
	plain := make([]byte, size)
	for i := range plain {
		plain[i] = byte(i)
	}
	sealed := s.Seal(1, 0, 0, plain)
	dst := make([]byte, 0, len(sealed))
	out := make([]byte, 0, size)
	var seals, opens []float64
	for b := 0; b < batches; b++ {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			dst = s.SealTo(dst[:0], 1, 0, uint64(b), plain)
		}
		t1 := time.Now()
		for i := 0; i < n; i++ {
			var err error
			if out, err = s.OpenInto(out[:0], 1, 0, uint64(b), dst); err != nil {
				panic(err) // opening what was just sealed under the same binding
			}
		}
		t2 := time.Now()
		seals = append(seals, float64(t1.Sub(t0).Nanoseconds())/float64(n))
		opens = append(opens, float64(t2.Sub(t1).Nanoseconds())/float64(n))
	}
	return median(seals), median(opens)
}
