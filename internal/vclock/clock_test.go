package vclock

import (
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestVirtualStartsAtEpoch(t *testing.T) {
	epoch := time.Date(2007, 6, 25, 0, 0, 0, 0, time.UTC) // ICDCS 2007 week
	v := NewVirtual(epoch)
	if got := v.Now(); !got.Equal(epoch) {
		t.Fatalf("Now() = %v, want %v", got, epoch)
	}
}

func TestVirtualChargeAdvances(t *testing.T) {
	v := NewVirtual(time.Unix(0, 0))
	v.Charge(1500 * time.Millisecond)
	v.Charge(250 * time.Millisecond)
	if got, want := v.Now().Sub(time.Unix(0, 0)), 1750*time.Millisecond; got != want {
		t.Fatalf("elapsed = %v, want %v", got, want)
	}
}

func TestVirtualNegativeChargeIgnored(t *testing.T) {
	v := NewVirtual(time.Unix(0, 0))
	v.Charge(-time.Second)
	if got := v.Now(); !got.Equal(time.Unix(0, 0)) {
		t.Fatalf("negative charge moved the clock to %v", got)
	}
}

func TestVirtualConcurrentCharges(t *testing.T) {
	v := NewVirtual(time.Unix(0, 0))
	const (
		goroutines = 8
		perG       = 1000
	)
	var wg sync.WaitGroup
	wg.Add(goroutines)
	for i := 0; i < goroutines; i++ {
		go func() {
			defer wg.Done()
			for j := 0; j < perG; j++ {
				v.Charge(time.Millisecond)
			}
		}()
	}
	wg.Wait()
	want := time.Duration(goroutines*perG) * time.Millisecond
	if got := v.Now().Sub(time.Unix(0, 0)); got != want {
		t.Fatalf("elapsed = %v, want %v (charges lost under concurrency)", got, want)
	}
}

func TestSkewedOffsetsReading(t *testing.T) {
	v := NewVirtual(time.Unix(0, 0))
	s := NewSkewed(v, 3*time.Second)
	if got := s.Now().Sub(v.Now()); got != 3*time.Second {
		t.Fatalf("skew = %v, want 3s", got)
	}
}

func TestSkewedChargePassesThrough(t *testing.T) {
	v := NewVirtual(time.Unix(0, 0))
	s := NewSkewed(v, -time.Minute)
	s.Charge(time.Second)
	if got := v.Now().Sub(time.Unix(0, 0)); got != time.Second {
		t.Fatalf("base advanced %v, want 1s", got)
	}
}

// TestSkewConstantDifference is the property underlying the paper's Fig. 7
// measurement: for any sequence of charges, the difference between the
// skewed reading and the base reading stays constant.
func TestSkewConstantDifference(t *testing.T) {
	f := func(offsetMs int16, chargesMs []uint16) bool {
		base := NewVirtual(time.Unix(0, 0))
		offset := time.Duration(offsetMs) * time.Millisecond
		sk := NewSkewed(base, offset)
		for _, c := range chargesMs {
			sk.Charge(time.Duration(c) * time.Millisecond)
			if sk.Now().Sub(base.Now()) != offset {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRealChargeSleeps(t *testing.T) {
	var r Real
	before := time.Now()
	r.Charge(10 * time.Millisecond)
	if got := time.Since(before); got < 10*time.Millisecond {
		t.Fatalf("Real.Charge returned after %v, want >= 10ms", got)
	}
	// Negative and zero charges must not sleep.
	before = time.Now()
	r.Charge(0)
	r.Charge(-time.Hour)
	if got := time.Since(before); got > time.Second {
		t.Fatalf("zero/negative charge took %v", got)
	}
}
