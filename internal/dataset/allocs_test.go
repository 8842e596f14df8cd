//go:build !race

package dataset

import (
	"math"
	"strconv"
	"testing"
)

// TestNewSizeGuardAllocs checks that New refuses a universe past the
// int32 index range before it allocates any index array: it may make only
// the error's own allocations. Never run it against a layout that sizes
// its indices before this check; that New would try to allocate 2^31
// slice headers. Compiled out under -race, like the package's other
// allocation gates, because the race build allocates more.
func TestNewSizeGuardAllocs(t *testing.T) {
	if strconv.IntSize < 64 {
		t.Skip("an int cannot exceed the int32 range")
	}
	var past int64 = math.MaxInt32 + 1
	for _, size := range [][2]int{{int(past), 10}, {10, int(past)}} {
		allocs := testing.AllocsPerRun(10, func() {
			if _, err := New(size[0], size[1], nil); err == nil {
				t.Fatalf("New(%d, %d) accepted", size[0], size[1])
			}
		})
		if allocs > 3 {
			t.Errorf("New(%d, %d) made %v allocations, want <= 3", size[0], size[1], allocs)
		}
	}
}
