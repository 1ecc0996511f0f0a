package main

import (
	"fmt"
	"slices"
	"syscall"
)

// arena holds the benchmark's pre-encoded input outside the Go heap, in
// anonymous memory maps, so that the input neither counts toward the heap
// metrics nor changes how often the collector runs for the program.
type arena struct {
	blocks [][]byte
	next   int    // blocks[next:] are not in use
	free   []byte // the unused tail of blocks[next-1]
}

// arenaBlock is the size of one memory map; a larger piece gets a map of
// its own.
const arenaBlock = 64 << 20

// copy returns b's bytes moved into the arena.
func (a *arena) copy(b []byte) ([]byte, error) {
	if len(b) > len(a.free) {
		if a.next == len(a.blocks) || len(a.blocks[a.next]) < len(b) {
			mem, err := syscall.Mmap(-1, 0, max(len(b), arenaBlock),
				syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
			if err != nil {
				return nil, fmt.Errorf("map input memory: %w", err)
			}
			a.blocks = slices.Insert(a.blocks, a.next, mem)
		}
		a.free = a.blocks[a.next]
		a.next++
	}
	n := copy(a.free, b)
	out := a.free[:n:n]
	a.free = a.free[n:]
	return out, nil
}

// reset makes the whole arena free again, keeping its maps, so that a set-up
// repeated into it writes to memory the kernel has already provided. Nothing
// may use the bytes copied before.
func (a *arena) reset() { a.next, a.free = 0, nil }
