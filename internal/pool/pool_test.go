package pool

import "testing"

// checkFiled drains every class of p and fails on a buffer filed below
// its class floor, then checks the reserve's accounting and bound.
func checkFiled(t *testing.T, p *Pool[int]) {
	t.Helper()
	if used, held := p.Reserved(); used != held || used > p.limit {
		t.Fatalf("reserve accounts %d elements, holds %d, bound %d", used, held, p.limit)
	}
	for cl := range p.classes {
		floor := 1 << (p.minBits + cl)
		for _, s := range p.reserve[cl] {
			if cap(s) < floor {
				t.Fatalf("reserve class %d holds capacity %d, below %d", cl, cap(s), floor)
			}
		}
		for v := p.classes[cl].Get(); v != nil; v = p.classes[cl].Get() {
			if s := *v.(*[]int); cap(s) < floor {
				t.Fatalf("class %d holds capacity %d, below %d", cl, cap(s), floor)
			}
		}
	}
}

// FuzzPoolClasses drives random Get/Put sequences through a small pool.
// Each op byte either gets a buffer of a size drawn from the next byte
// or puts back a held buffer, sometimes resliced to a smaller capacity.
// Every get has length 0 and capacity ≥ its request, every put files
// its buffer at or above its class floor, the reserve stays within its
// bound, and the counters balance.
func FuzzPoolClasses(f *testing.F) {
	f.Add([]byte{0, 5, 0, 40, 1, 0, 1, 0, 0, 40, 0, 200}, uint16(100))
	f.Add([]byte{0, 255, 0, 255, 3, 0, 3, 1, 0, 17, 2, 9}, uint16(0))
	f.Fuzz(func(t *testing.T, ops []byte, reserve uint16) {
		p := New[int](2, 6, int(reserve))
		var held [][]int
		puts := uint64(0)
		for i := 0; i+1 < len(ops); i += 2 {
			op, arg := ops[i], int(ops[i+1])
			switch op % 4 {
			case 0, 1: // get n, from 0 up to past the largest class
				n := arg % 100
				s := p.Get(n)
				if n <= 0 {
					if s != nil {
						t.Fatalf("Get(%d) = %d-long buffer, want nil", n, len(s))
					}
					continue
				}
				if len(s) != 0 || cap(s) < n {
					t.Fatalf("Get(%d): len %d cap %d", n, len(s), cap(s))
				}
				held = append(held, s[:cap(s)])
			case 2: // put a held buffer back whole
				if len(held) == 0 {
					continue
				}
				k := arg % len(held)
				p.Put(held[k])
				puts++
				held = append(held[:k], held[k+1:]...)
			case 3: // put a held buffer back with its capacity cut
				if len(held) == 0 {
					continue
				}
				k := arg % len(held)
				s := held[k]
				c := arg % (cap(s) + 1)
				p.Put(s[:0:c])
				puts++
				held = append(held[:k], held[k+1:]...)
			}
		}
		st := p.Stats()
		if st.Gets != st.Hits+st.Misses {
			t.Fatalf("counters %+v: gets ≠ hits + misses", st)
		}
		if st.Puts+st.Discards != puts {
			t.Fatalf("counters %+v after %d puts", st, puts)
		}
		checkFiled(t, p)
	})
}
