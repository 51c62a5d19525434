"""``python -m stbcid``: the ``stbcid`` command line."""
from .cli import main
raise SystemExit(main())
