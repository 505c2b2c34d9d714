//go:build !linux && !darwin

package labelstore

import (
	"errors"
	"os"
)

// mmapFile reports mmap as unavailable; Open falls back to reading the file
// into the heap (openFallback).
func mmapFile(*os.File, int) ([]byte, error) { return nil, errors.ErrUnsupported }

func munmapFile([]byte) error { return nil }
