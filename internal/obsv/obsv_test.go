package obsv

import (
	"sync"
	"testing"
	"time"
)

func TestPhasesAccumulate(t *testing.T) {
	var p Phases
	if p.Build() != 0 || p.Probe() != 0 || p.Collect() != 0 {
		t.Fatal("zero Phases not zero")
	}
	p.AddBuild(10 * time.Millisecond)
	p.AddBuild(5 * time.Millisecond)
	p.AddProbe(time.Second)
	p.AddCollect(3 * time.Millisecond)
	if got := p.Build(); got != 15*time.Millisecond {
		t.Errorf("Build = %v, want 15ms", got)
	}
	if got := p.Probe(); got != time.Second {
		t.Errorf("Probe = %v, want 1s", got)
	}
	if got := p.Collect(); got != 3*time.Millisecond {
		t.Errorf("Collect = %v, want 3ms", got)
	}
	p.Reset()
	if p.Build() != 0 || p.Probe() != 0 || p.Collect() != 0 {
		t.Error("Reset did not zero phases")
	}
}

func TestPhasesConcurrent(t *testing.T) {
	var p Phases
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				p.AddProbe(time.Microsecond)
			}
		}()
	}
	wg.Wait()
	if got := p.Probe(); got != 8000*time.Microsecond {
		t.Errorf("concurrent Probe = %v, want 8ms", got)
	}
}
