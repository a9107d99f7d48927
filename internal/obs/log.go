package obs

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"strings"
)

// ParseLevel maps the -log-level flag values to slog levels.
func ParseLevel(s string) (slog.Level, error) {
	switch strings.ToLower(s) {
	case "debug":
		return slog.LevelDebug, nil
	case "info", "":
		return slog.LevelInfo, nil
	case "warn", "warning":
		return slog.LevelWarn, nil
	case "error":
		return slog.LevelError, nil
	}
	return 0, fmt.Errorf("unknown log level %q (want debug, info, warn or error)", s)
}

// NewLogger builds the logger behind the binaries' -log-level and
// -log-format flags: format is "text" or "json".
func NewLogger(w io.Writer, level, format string) (*slog.Logger, error) {
	lv, err := ParseLevel(level)
	if err != nil {
		return nil, err
	}
	opts := &slog.HandlerOptions{Level: lv}
	switch strings.ToLower(format) {
	case "text", "":
		return slog.New(slog.NewTextHandler(w, opts)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(w, opts)), nil
	}
	return nil, fmt.Errorf("unknown log format %q (want text or json)", format)
}

// NopLogger returns a logger that discards everything; the resolution
// helpers below use it so callers never have to nil-check.
func NopLogger() *slog.Logger { return slog.New(slog.DiscardHandler) }

// LogfLogger renders slog records as "msg key=value ..." through a
// printf-style callback such as testing.T.Logf, so a test can route a
// component's Logger into its own log output. A nil callback discards.
func LogfLogger(logf func(format string, args ...any)) *slog.Logger {
	if logf == nil {
		return NopLogger()
	}
	return slog.New(&logfHandler{logf: logf})
}

// logfHandler renders slog records through a printf-style callback.
type logfHandler struct {
	logf  func(format string, args ...any)
	attrs []slog.Attr
	group string
}

func (h *logfHandler) Enabled(_ context.Context, lv slog.Level) bool {
	return lv >= slog.LevelInfo
}

func (h *logfHandler) Handle(_ context.Context, r slog.Record) error {
	var b strings.Builder
	b.WriteString(r.Message)
	writeAttr := func(a slog.Attr, group string) {
		if a.Equal(slog.Attr{}) {
			return
		}
		b.WriteByte(' ')
		if group != "" {
			b.WriteString(group)
			b.WriteByte('.')
		}
		b.WriteString(a.Key)
		b.WriteByte('=')
		b.WriteString(a.Value.String())
	}
	// Stored attrs were qualified by WithAttrs at add time; only the
	// record's own attrs take the handler's current group.
	for _, a := range h.attrs {
		writeAttr(a, "")
	}
	r.Attrs(func(a slog.Attr) bool {
		writeAttr(a, h.group)
		return true
	})
	h.logf("%s", b.String())
	return nil
}

func (h *logfHandler) WithAttrs(attrs []slog.Attr) slog.Handler {
	nh := *h
	nh.attrs = append([]slog.Attr(nil), h.attrs...)
	// Qualify with the group open at add time, matching slog semantics:
	// WithGroup scopes attrs added after it, not before.
	for _, a := range attrs {
		if h.group != "" {
			a.Key = h.group + "." + a.Key
		}
		nh.attrs = append(nh.attrs, a)
	}
	return &nh
}

func (h *logfHandler) WithGroup(name string) slog.Handler {
	nh := *h
	if nh.group != "" {
		nh.group += "." + name
	} else {
		nh.group = name
	}
	return &nh
}
