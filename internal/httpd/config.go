package httpd

import (
	"fmt"
	"strconv"
	"strings"
)

// ServerConfig is the parsed httpd configuration file (the subset of
// Apache directives the case study needs).
type ServerConfig struct {
	// ListenPort is the TCP port to serve on.
	ListenPort uint16
	// User is the login name the server serves requests as.
	User string
	// Group is the group name the server serves requests as.
	Group string
	// DocumentRoot is the filesystem root for URIs.
	DocumentRoot string
	// ErrorLog is the path of the error log file.
	ErrorLog string
}

// DefaultConfigPath is where the server looks for its configuration.
const DefaultConfigPath = "/etc/httpd.conf"

// DefaultPort is the stock Listen port.
const DefaultPort uint16 = 8080

// ConfigFileForPort renders the stock configuration with an explicit
// Listen port.
func ConfigFileForPort(port uint16) []byte {
	return []byte(fmt.Sprintf(`# mini-httpd configuration (Apache directive subset)
Listen %d
User wwwrun
Group www
DocumentRoot /var/www
ErrorLog /var/log/httpd-error_log
`, port))
}

// ParseConfig parses an Apache-style directive file.
func ParseConfig(data []byte) (ServerConfig, error) {
	cfg := ServerConfig{
		ListenPort:   8080,
		User:         "nobody",
		Group:        "nogroup",
		DocumentRoot: "/var/www",
		ErrorLog:     "/var/log/httpd-error_log",
	}
	for i, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			return cfg, fmt.Errorf("httpd.conf line %d: %q: want 'Directive value'", i+1, line)
		}
		key, val := fields[0], fields[1]
		switch key {
		case "Listen":
			port, err := strconv.ParseUint(val, 10, 16)
			if err != nil {
				return cfg, fmt.Errorf("httpd.conf line %d: Listen %q: %w", i+1, val, err)
			}
			cfg.ListenPort = uint16(port)
		case "User":
			cfg.User = val
		case "Group":
			cfg.Group = val
		case "DocumentRoot":
			cfg.DocumentRoot = val
		case "ErrorLog":
			cfg.ErrorLog = val
		default:
			return cfg, fmt.Errorf("httpd.conf line %d: unknown directive %q", i+1, key)
		}
	}
	return cfg, nil
}
