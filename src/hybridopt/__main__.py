"""``python -m hybridopt`` runs the ``hybridopt`` command."""
import sys
from .cli import main
sys.exit(main())
