package sim

// Rng is a tiny splitmix64 random stream. The simulator gives every
// rank its own Rng so that random draws are a function of (seed, rank,
// per-rank draw index) rather than of global execution order: a rank's
// jitter sequence is the same no matter how its events interleave with
// other shards', so a change to one rank's dispatch cannot reshuffle
// another rank's randomness.
//
// It implements the one-method Uniform contract the latency model
// consumes (Float64 in [0,1)), like math/rand.Rand.
type Rng struct {
	state uint64
}

// NewRng returns a stream seeded with s. Streams with distinct seeds
// are statistically independent (splitmix64 is the stream-splitting
// generator of the JDK and of xoshiro seeding).
func NewRng(s uint64) Rng { return Rng{state: s} }

// Seed resets the stream.
func (r *Rng) Seed(s uint64) { r.state = s }

// Uint64 returns the next value of the stream.
func (r *Rng) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	return mix64(r.state)
}

// Float64 returns the next value in [0, 1).
func (r *Rng) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a value in [0, n). It panics if n <= 0.
func (r *Rng) Intn(n int) int {
	if n <= 0 {
		panic("sim: Rng.Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// mix64 is the splitmix64 finalizer: a bijective avalanche of its
// input, so distinct keys give uncorrelated outputs.
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Mix64 hashes a key tuple into a stream seed. Callers derive
// order-independent random values by keying on stable identities
// (run seed, communicator, collective sequence) instead of drawing
// from a shared stream in execution order.
func Mix64(keys ...uint64) uint64 {
	h := uint64(0x51_7c_c1_b7_27_22_0a_95)
	for _, k := range keys {
		h = mix64(h ^ k)
	}
	return h
}

// UniformFrom returns a single uniform value in [0,1) derived from the
// key tuple — the stateless one-draw analogue of NewRng(...).Float64().
func UniformFrom(keys ...uint64) float64 {
	return float64(Mix64(keys...)>>11) / (1 << 53)
}

// Fixed is a Uniform that always returns the same value: it adapts a
// keyed one-shot draw (UniformFrom) to APIs that take a stream.
type Fixed float64

// Float64 returns the fixed value.
func (f Fixed) Float64() float64 { return float64(f) }

// Uniform is the random-source contract of the latency model: a single
// Float64 method, satisfied by *math/rand.Rand, *Rng, and Fixed.
type Uniform interface {
	Float64() float64
}
