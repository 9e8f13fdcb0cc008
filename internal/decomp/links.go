package decomp

// LinkDepth is the channel capacity per directed link that the real
// solver's exchange schedule needs. Every exchange is send-all-then-
// recv-all and a rank posts exchange k+1 only after draining exchange k,
// so before message j can enter a link, its receiver must have consumed
// message j−2: at most two messages are ever in flight per directed link.
// Capacity 4 doubles that bound for slack. Payload width is *not* bounded
// by the channel — senders provision ring buffers from the partition's
// actual border width (Subdomain.MaxSendWords), so arbitrarily large
// borders cannot deadlock an exchange.
const LinkDepth = 4

// Links is the static channel fabric: one buffered channel per directed
// neighbor pair, mirroring the machine's dedicated local links. The
// element type is generic: the solver ships value slices, and the Finite
// Element Machine's clocks ship arrival stamps on a fabric of their own.
type Links[T any] struct {
	ch map[[2]int]chan T
}

// NewLinks wires a channel of the given depth for every directed neighbor
// pair in the decomposition.
func NewLinks[T any](d *Decomposition, depth int) *Links[T] {
	l := &Links[T]{ch: make(map[[2]int]chan T)}
	for p := 0; p < d.P; p++ {
		for _, q := range d.Subs[p].Neighbors {
			l.ch[[2]int{p, q}] = make(chan T, depth)
		}
	}
	return l
}

// Send enqueues a message on the from→to link.
func (l *Links[T]) Send(from, to int, v T) { l.ch[[2]int{from, to}] <- v }

// Recv dequeues the next message from the from→to link.
func (l *Links[T]) Recv(from, to int) T { return <-l.ch[[2]int{from, to}] }
