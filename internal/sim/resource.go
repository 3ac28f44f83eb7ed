package sim

// Semaphore is a counting semaphore with FIFO admission, used to model
// exclusive or capacity-limited hardware resources (a copy engine, a network
// link slot, a CPU core).
type Semaphore struct {
	k       *Kernel
	free    int
	cap     int
	waiters Ring[*Proc]
}

// NewSemaphore returns a semaphore with n units available.
func (k *Kernel) NewSemaphore(n int) *Semaphore {
	return &Semaphore{k: k, free: n, cap: n}
}

// Acquire takes one unit, parking p in FIFO order until one is free.
func (s *Semaphore) Acquire(p *Proc) {
	p.mayPark()
	if s.free > 0 && s.waiters.Len() == 0 {
		s.free--
		return
	}
	s.waiters.Push(p)
	// Release passes the unit directly to the woken waiter (no barging), so
	// a single park suffices.
	p.park()
}

// TryAcquire takes a unit without blocking and reports success.
func (s *Semaphore) TryAcquire() bool {
	if s.free > 0 && s.waiters.Len() == 0 {
		s.free--
		return true
	}
	return false
}

// Release returns one unit, waking the longest-waiting process if any. The
// unit passes directly to the woken process (no barging).
func (s *Semaphore) Release() {
	if s.waiters.Len() > 0 {
		s.k.schedule(s.waiters.Pop(), s.k.now, wakeEvent)
		return
	}
	s.free++
	if s.free > s.cap {
		panic("sim: semaphore released above capacity")
	}
}

// Free returns the number of available units.
func (s *Semaphore) Free() int { return s.free }

// InUse returns the number of held units.
func (s *Semaphore) InUse() int { return s.cap - s.free }

// Mutex is a binary semaphore.
type Mutex struct{ Semaphore }

// NewMutex returns an unlocked mutex.
func (k *Kernel) NewMutex() *Mutex {
	return &Mutex{Semaphore{k: k, free: 1, cap: 1}}
}

// Lock acquires the mutex, parking p until it is free.
func (m *Mutex) Lock(p *Proc) { m.Acquire(p) }

// Unlock releases the mutex.
func (m *Mutex) Unlock() { m.Release() }
