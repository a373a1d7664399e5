// Package freelist holds the bounded free list that scan-path state is
// borrowed from: orcfile's codecs and decode scratch, hive's vector
// expression registers and overlay scratch.
package freelist

// Size bounds every list. A borrower beyond it constructs its own
// state and the surplus is dropped on return, so a list pins at most
// this many values however many tasks run at once.
const Size = 16

// List is a bounded free list of *T whose zero value is usable. Unlike
// sync.Pool it is deterministic — a returned value is the next one
// borrowed, with or without the race detector — which is what lets a
// test pin "steady state constructs none". Everything on a list is reset
// by its next borrower.
type List[T any] chan *T

// New returns an empty list.
func New[T any]() List[T] { return make(List[T], Size) }

// Get borrows a value: a returned one if there is any, else a new one.
func (l List[T]) Get() *T {
	select {
	case v := <-l:
		return v
	default:
		return new(T)
	}
}

// Put returns a value; it is dropped when the list is full.
func (l List[T]) Put(v *T) {
	select {
	case l <- v:
	default:
	}
}
