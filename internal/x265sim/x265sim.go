// Package x265sim reproduces the concurrency structure of the x265 HEVC
// encoder, the paper's second case study (Sections III and V): frame-level
// parallelism fed by a lookahead queue, wavefront-parallel CTU processing
// within each frame, a bonded-task-group worker pool, and an ordered output
// stage.
//
// The paper's three headline locks appear directly:
//
//   - the lookahead lock guards the input/output frame queues
//     (mediating inter-frame parallelism);
//   - the CTURows lock "mediates communication from a completed CTU to the
//     CTUs that depend on it" — here, the per-frame wavefront progress
//     array and the cross-frame reference-row counters;
//   - the bonded-task-group lock governs the allocation of row jobs to
//     worker threads.
//
// A cost lock protects global rate metadata, and the output queue is the
// paper's Listing-4 ready-flag queue: a frame thread enqueues a not-ready
// node when it admits a frame and marks it ready when the frame finishes,
// keeping every critical section two-phase and hence elidable. The
// Listing-3 (non-two-phase) variant that *cannot* be elided is implemented
// in non2pl.go for the Section V demonstration.
//
// Per-CTU work is genuine pixel crunching (package video): SAD motion
// search against the previous frame plus integer DCT and quantisation of
// the residual. Total encoded cost is deterministic for a given input, so
// runs under different elision policies can be checked for identical
// output.
package x265sim

import (
	"time"

	"gotle/internal/video"
)

// Config parameterises an encode.
type Config struct {
	// Workers is the worker-pool size (the paper varies this 1–8; x265's
	// default pool is 8).
	Workers int
	// FrameThreads is the number of concurrently-encoded frames (x265
	// default: 3).
	FrameThreads int
	// CTUSize is the coding-tree-unit edge in pixels (default 16 — small
	// CTUs keep per-frame wavefronts wide at simulation frame sizes).
	CTUSize int
	// WaitTimeout bounds condition waits (x265's soft real-time timed
	// waits, Section VI.d). Default 2ms.
	WaitTimeout time.Duration
	// Slices splits each frame into independently-decodable horizontal
	// slices (x265's slice parallelism, Section III: "Each video frame is
	// also divided into 'slides', which can be independently processed").
	// Wavefront dependencies do not cross slice boundaries, so each
	// slice's first row starts as soon as the frame is admitted.
	// Default 1 (whole-frame wavefront).
	Slices int
}

// The encoder's fixed parameters: the motion-search radius in pixels and the
// quantiser. The input queue holds 2×FrameThreads frames.
const (
	searchRange = 4
	quantiser   = 12
)

func (c Config) withDefaults() Config {
	if c.Workers < 1 {
		c.Workers = 1
	}
	if c.FrameThreads < 1 {
		c.FrameThreads = 3
	}
	if c.CTUSize == 0 {
		c.CTUSize = 16
	}
	if c.WaitTimeout == 0 {
		c.WaitTimeout = 2 * time.Millisecond
	}
	if c.Slices < 1 {
		c.Slices = 1
	}
	return c
}

// Result reports one encode.
type Result struct {
	// FrameCosts is the per-frame quantised level sum — the deterministic
	// "bitstream size" oracle.
	FrameCosts []int64
	// TotalCost sums FrameCosts (also accumulated live under the cost
	// lock).
	TotalCost int64
	// OutputOrder lists frame indices in output order; it must equal input
	// order.
	OutputOrder []int
	// Elapsed is the wall-clock encode time.
	Elapsed time.Duration
}

// encodeCTU performs the per-CTU pixel work: motion search against the
// reference frame (the previous frame's source, standing in for the
// reconstructed picture), then DCT and quantisation of the residual in 8×8
// blocks. Intra frames (no reference) transform the raw block.
func encodeCTU(cur, ref *video.Frame, cx, cy int, cfg Config) int64 {
	var cost int64
	size := cfg.CTUSize
	var dx, dy int
	if ref != nil {
		dx, dy, _ = video.MotionSearch(cur, ref, cx, cy, size, searchRange)
	}
	var res, coeffs [64]int32
	for by := 0; by < size; by += 8 {
		for bx := 0; bx < size; bx += 8 {
			for y := 0; y < 8; y++ {
				for x := 0; x < 8; x++ {
					p := int32(cur.At(cx+bx+x, cy+by+y))
					var q int32
					if ref != nil {
						q = int32(ref.At(cx+bx+x+dx, cy+by+y+dy))
					} else {
						q = 128 // flat intra predictor
					}
					res[y*8+x] = p - q
				}
			}
			video.DCT8(&res, &coeffs)
			nz, sum := video.Quantize(&coeffs, quantiser)
			cost += sum + int64(nz)
		}
	}
	return cost
}
