package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"
)

// tailBeyond is how many samples must lie above the reported tail
// percentile.
const tailBeyond = 10

// tail returns the highest percentile with at least tailBeyond samples
// beyond it: the (tailBeyond+1)-th largest sample, and its percentile by
// nearest rank. ok is false when there are too few samples for the rule.
func tail(sorted []time.Duration) (v time.Duration, pct float64, ok bool) {
	n := len(sorted)
	if n <= tailBeyond {
		return 0, 0, false
	}
	return sorted[n-1-tailBeyond], 100 * float64(n-tailBeyond) / float64(n), true
}

// median of a sorted sample (the mean of the middle pair for even sizes).
func median(sorted []time.Duration) time.Duration {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

func medianFloat(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sortedDurations(ds []time.Duration) []time.Duration {
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s
}

func mean(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	var sum time.Duration
	for _, d := range ds {
		sum += d
	}
	return sum / time.Duration(len(ds))
}

func absDuration(d time.Duration) time.Duration {
	if d < 0 {
		return -d
	}
	return d
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// mb converts bytes to decimal megabytes.
func mb(bytes float64) float64 { return bytes / 1e6 }

// peakRSS reads the process's peak resident set (VmHWM) in bytes.
func peakRSS() (int64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			break
		}
		kb, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("parse VmHWM %q: %w", line, err)
		}
		return kb << 10, nil
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM line in /proc/self/status")
}
