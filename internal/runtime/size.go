package runtime

import "unsafe"

// SizeOf reports the in-memory size of T's direct representation in
// bytes (unsafe.Sizeof of the zero value — excludes anything behind
// pointers, slices, or maps). Engines use it for deterministic
// checkpoint-frame byte estimates (Policy.FrameBytes): element size times
// element count, identical across runs on the same platform.
func SizeOf[T any]() int64 {
	var t T
	return int64(unsafe.Sizeof(t))
}

// MapEntryBytes is the flat per-entry estimate checkpoint sizing
// charges for map-typed frame fields (key header + value interface
// word pair); the boxed values themselves are opaque and excluded the
// same way on full and delta frames.
const MapEntryBytes = 16
