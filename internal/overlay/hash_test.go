package overlay

import (
	"sync"
	"testing"
)

// TestHashAddressMemoAgreesWithSHA1 checks the memoised HashAddress against
// the plain SHA-1 on a million addresses: address 0 (whose table entry must
// not be mistaken for an empty slot), runs that fill every slot, addresses
// that collide on a slot and evict each other, and re-reads of all of them
// once the table is warm.
func TestHashAddressMemoAgreesWithSHA1(t *testing.T) {
	const slots = 1 << memoBits
	check := func(u uint32) {
		a := Address(u) // the address space is all 32 bits: negative Addresses included
		if got, want := HashAddress(a), hashAddressSHA1(a); got != want {
			t.Fatalf("HashAddress(%d) = %v, SHA-1 says %v", uint32(a), got, want)
		}
	}
	check(0)
	check(0)
	for pass := 0; pass < 2; pass++ { // cold, then warm
		for u := uint32(0); u < 600_000; u++ { // ~9 addresses per slot
			check(u)
		}
	}
	// Pairs on one slot, alternating: every call evicts the other.
	for i := 0; i < 100_000; i++ {
		u := uint32(i % 977)
		check(u)
		check(u + slots)
		check(u + 0xffff0000)
	}
	for u := uint32(0xfffffff0); u != 0; u++ { // the top of the space, wrapping to 0
		check(u)
	}
	check(0)
}

// TestHashAddressMemoConcurrentWriters hammers a handful of slots from
// several goroutines with addresses that all collide: a reader must only
// ever see a whole (address, key) entry. Run under -race.
func TestHashAddressMemoConcurrentWriters(t *testing.T) {
	const slots = 1 << memoBits
	var wg sync.WaitGroup
	errs := make(chan Address, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20_000; i++ {
				a := Address(i%4) + Address((i+g)%16)*slots
				if HashAddress(a) != hashAddressSHA1(a) {
					select {
					case errs <- a:
					default:
					}
					return
				}
			}
		}(g)
	}
	wg.Wait()
	select {
	case a := <-errs:
		t.Fatalf("HashAddress(%d) disagreed with SHA-1 under concurrent writers", uint32(a))
	default:
	}
}

func TestHashAddressWarmDoesNotAllocate(t *testing.T) {
	HashAddress(42)
	if got := testing.AllocsPerRun(100, func() { HashAddress(42) }); got != 0 {
		t.Fatalf("warm HashAddress allocates %v", got)
	}
}
